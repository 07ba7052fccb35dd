package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"fedproxvr/internal/clisetup"
	"fedproxvr/internal/jobs"
	"fedproxvr/internal/telemetry"
)

// jobsWorkload describes the jobs-plane workload: several synthetic jobs
// submitted at once to a manager with fedserver's defaults (one slot, a
// telemetry hub, a durable checkpoint every round).
type jobsWorkload struct {
	jobs    int
	devices int
	rounds  int
}

func (jw jobsWorkload) spec(id string, seed int64) jobs.Spec {
	// fedserver's job defaults, spelled out so the reference run in check
	// builds exactly the same experiment.
	return jobs.Spec{ID: id, Dataset: "synthetic", Model: "softmax", Alg: "sarah",
		Devices: jw.devices, Samples: 120, Beta: 5, Mu: 0.1, Tau: 20, Batch: 16,
		Rounds: jw.rounds, Seed: seed}
}

// jobSeeds derives the distinct seeds of one trial's jobs.
func (jw jobsWorkload) jobSeeds(seed int64) []int64 {
	out := make([]int64, jw.jobs)
	for j := range out {
		out[j] = subSeed(seed, 100+j)
	}
	return out
}

// trial opens a fresh manager in its own state directory under root,
// submits every job, waits for all of them, and reads the result back
// from the telemetry hub and the jobs' last checkpoints. Set-up is
// opening the manager plus the submissions (each Submit builds the job's
// runner to validate it); the makespan runs from the first Submit to the
// last job's end.
func (jw jobsWorkload) trial(root string, t target, seed int64, ls *layerStats) (*trialResult, error) {
	dir, err := os.MkdirTemp(root, "jobs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	hub := telemetry.NewHub(telemetry.Options{})
	defer hub.Close()
	m, err := jobs.Open(jobs.Options{Dir: dir, Slots: 1, Telemetry: hub})
	if err != nil {
		return nil, err
	}
	defer m.Stop()
	start := time.Now()
	ids := make([]string, jw.jobs)
	var submitMs []float64
	for j, s := range jw.jobSeeds(seed) {
		ids[j] = fmt.Sprintf("job%d", j)
		ts := time.Now()
		if _, err := m.Submit(jw.spec(ids[j], s)); err != nil {
			return nil, err
		}
		submitMs = append(submitMs, time.Since(ts).Seconds()*1e3)
	}
	res := &trialResult{SetupS: time.Since(t0).Seconds()}
	m.Wait()
	res.WallS = time.Since(start).Seconds()

	store, err := jobs.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	var ttts, losses, accs []float64
	var busyS float64
	samples, alerts := 0, 0
	for _, id := range ids {
		st, err := m.Get(id)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if st.State != jobs.Done {
			res.Failed++
			continue
		}
		ck, err := store.LoadCheckpoint(id)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", id, err)
		}
		if ck.Round != jw.rounds {
			return nil, fmt.Errorf("job %s: last checkpoint at round %d, want %d", id, ck.Round, jw.rounds)
		}
		res.Models = append(res.Models, ck.Global)
		js, ok := hub.Get(id)
		if !ok {
			return nil, fmt.Errorf("job %s: no telemetry", id)
		}
		series := js.Series(0, 0, 0)
		samples += len(series)
		alerts += len(js.Events(0, 0))
		var evals []evalPoint
		for _, s := range series {
			phase := s.SelectSeconds + s.ExecSeconds + s.AggSeconds + s.EvalSeconds
			res.RoundMs = append(res.RoundMs, phase*1e3)
			busyS += phase
			if ls != nil {
				ls.evalS += s.EvalSeconds
				ls.execS += s.ExecSeconds
				ls.aggS += s.AggSeconds
				if !math.IsNaN(s.LatP50) {
					ls.solveMs = append(ls.solveMs, s.LatP50*1e3)
					ls.solveMaxMs = max(ls.solveMaxMs, s.LatP99*1e3)
				}
			}
			res.Attempted += s.Participants + s.Failed + s.Stragglers
			res.Failed += s.Failed
			if !math.IsNaN(s.TrainLoss) {
				at := time.UnixMilli(s.AtUnixMs).Sub(start).Seconds()
				evals = append(evals, evalPoint{At: at, Loss: s.TrainLoss, Acc: s.TestAcc, Round: s.Round})
			}
		}
		if n := len(series); n > 0 {
			res.GradEvals += series[n-1].GradEvals
		}
		at := math.NaN()
		if p, ok := t.firstMeeting(evals); ok {
			at = p.At
		}
		ttts = append(ttts, at)
		if n := len(evals); n > 0 {
			losses = append(losses, evals[n-1].Loss)
			accs = append(accs, evals[n-1].Acc)
		}
	}
	// Every job's time to target must exist; the mean of a NaN stays NaN.
	res.TTT = mean(ttts)
	res.FinalLoss, res.FinalAcc = mean(losses), mean(accs)
	total := jw.jobs * jw.rounds
	// Telemetry must have ingested every round and raised no alert.
	res.Attempted += 2
	if samples != total {
		res.Failed++
	}
	if alerts != 0 {
		res.Failed++
	}
	if ls != nil {
		ls.submitMs = append(ls.submitMs, submitMs...)
		ls.rounds += total
		ls.busyS += busyS
		ls.gapS += res.WallS - busyS
		ls.wallS += res.WallS
		ls.telemetrySamples += samples
		ls.alerts += alerts
		ls.gradEvals += res.GradEvals
	}
	return res, nil
}

// check verifies every job's last checkpoint against an uninterrupted
// in-process run of the same spec, built the way the manager builds a
// job's runner. Traced, the reference runs also give the optim layer.
func (jw jobsWorkload) check(seed int64, res *trialResult, ls *layerStats) error {
	seeds := jw.jobSeeds(seed)
	if len(res.Models) != len(seeds) {
		return fmt.Errorf("%d of %d jobs finished", len(res.Models), len(seeds))
	}
	for j, s := range seeds {
		sp := jw.spec(fmt.Sprintf("job%d", j), s)
		task, err := clisetup.Task(sp.Dataset, sp.Model, sp.Devices, sp.Samples, 1, sp.Seed)
		if err != nil {
			return err
		}
		cfg, err := clisetup.Config(sp.Alg, sp.Beta, task.L, sp.Mu, sp.Tau, sp.Batch, sp.Rounds)
		if err != nil {
			return err
		}
		cfg.Name, cfg.Seed, cfg.Test = sp.ID, sp.Seed, task.Test
		ref, err := referenceRun(task, cfg, ls)
		if err != nil {
			return err
		}
		if err := sameModel(ref, res.Models[j]); err != nil {
			return fmt.Errorf("job %s checkpoint vs in-process run: %w", sp.ID, err)
		}
	}
	return nil
}
