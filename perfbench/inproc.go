package main

import (
	"context"
	"fmt"
	"math"
	"time"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/tensor"
)

// trialResult is one training run of a workload on one input set.
type trialResult struct {
	Dataset int
	Traced  bool

	SetupS    float64     // building the inputs and the runtime
	WallS     float64     // training: round-0 evaluation to the last round's end
	RoundMs   []float64   // per round
	TTT       float64     // time to target (s); NaN when not reached
	GradEvals int64       // gradient evaluations spent by training
	FinalLoss float64     // training loss at the last evaluation
	FinalAcc  float64     // test accuracy at the last evaluation
	Models    [][]float64 // final global model(s), for the bit-identity checks

	BytesPerRound float64 // wire bytes (sent + received) per round; 0 in-process
	PeakMB        float64 // resident-set high-water mark during the trial

	Attempted, Failed int // device reports (and jobs) attempted and failed
}

// roundClock times the rounds of an engine run from an OnRound hook and
// records the evaluation points the run's quality target is judged on.
type roundClock struct {
	start, last time.Time
	roundMs     []float64
	evals       []evalPoint
	attempted   int
	failed      int
}

func startClock() *roundClock {
	now := time.Now()
	return &roundClock{start: now, last: now}
}

func (c *roundClock) tick(info engine.RoundInfo, now time.Time) {
	c.roundMs = append(c.roundMs, now.Sub(c.last).Seconds()*1e3)
	c.last = now
	c.attempted += len(info.Participants) + info.Failed + info.Stragglers
	c.failed += info.Failed
}

func (c *roundClock) eval(round int, loss, acc float64, now time.Time) {
	c.evals = append(c.evals, evalPoint{At: now.Sub(c.start).Seconds(), Loss: loss, Acc: acc, Round: round})
}

// runEngine trains eng to its configured round count and returns the
// timing record. Untraced, the engine evaluates itself as configured and
// the hook only reads the clock and the series. Traced, the evaluator is
// taken out of the engine and called from the hook instead — the same
// work at the same point of the round — so its calls can be timed;
// execute and aggregate are timed by decorators installed by the caller.
func runEngine(eng *engine.Engine, ev *engine.Evaluator, ls *layerStats) (*roundClock, error) {
	cfg := eng.Config()
	traced := ls != nil
	evalNow := func(round int) (loss, acc float64) {
		t0 := time.Now()
		loss, acc = ev.Loss(eng.Global()), ev.Accuracy(eng.Global())
		ls.evalS += time.Since(t0).Seconds()
		return loss, acc
	}
	if traced {
		eng.SetEvaluator(nil)
	}
	var evals0 int64
	if ec, ok := eng.Executor().(engine.EvalCounter); ok {
		evals0 = ec.GradEvals()
	}
	clk := startClock()
	if traced {
		loss, acc := evalNow(0)
		clk.eval(0, loss, acc, time.Now())
	}
	unhook := eng.OnRound(func(info engine.RoundInfo) error {
		isEval := info.Round%cfg.EvalEvery == 0 || info.Round == cfg.Rounds
		if traced {
			if isEval {
				loss, acc := evalNow(info.Round)
				clk.eval(info.Round, loss, acc, time.Now())
			}
		} else if isEval {
			p, _ := info.Series.Last()
			clk.eval(info.Round, p.TrainLoss, p.TestAcc, time.Now())
		}
		clk.tick(info, time.Now())
		return nil
	})
	defer unhook()
	series, err := eng.Run(context.Background())
	if err != nil {
		return nil, err
	}
	if !traced && len(series.Points) > 0 {
		// The round-0 point is measured inside Run before the first hook.
		p := series.Points[0]
		clk.evals = append([]evalPoint{{At: 0, Loss: p.TrainLoss, Acc: p.TestAcc}}, clk.evals...)
	}
	if traced {
		ls.rounds += len(clk.roundMs)
		ls.wallS += clk.last.Sub(clk.start).Seconds()
		if ec, ok := eng.Executor().(engine.EvalCounter); ok {
			ls.gradEvals += ec.GradEvals() - evals0
		}
	}
	return clk, nil
}

// finish fills a trial record from a finished run's clock.
func (c *roundClock) finish(res *trialResult, t target, evals int64, global []float64) {
	res.WallS = c.last.Sub(c.start).Seconds()
	res.RoundMs = c.roundMs
	res.GradEvals = evals
	res.Attempted, res.Failed = c.attempted, c.failed
	res.TTT = math.NaN()
	if p, ok := t.firstMeeting(c.evals); ok {
		res.TTT = p.At
	}
	if n := len(c.evals); n > 0 {
		res.FinalLoss, res.FinalAcc = c.evals[n-1].Loss, c.evals[n-1].Acc
	}
	res.Models = [][]float64{append([]float64(nil), global...)}
}

// inprocSpec builds one in-process workload's task and configuration from
// an input seed.
type inprocSpec func(seed int64) (fedproxvr.Task, fedproxvr.Config, error)

// inprocTrial runs one in-process workload trial: build the task and the
// runner (set-up), then train. Traced, it decorates the executor and the
// aggregator and hooks every device's solver phases.
func inprocTrial(spec inprocSpec, t target, seed int64, ls *layerStats) (*trialResult, error) {
	t0 := time.Now()
	task, cfg, err := spec(seed)
	if err != nil {
		return nil, err
	}
	r, err := fedproxvr.NewRunner(task, cfg)
	if err != nil {
		return nil, err
	}
	res := &trialResult{SetupS: time.Since(t0).Seconds()}
	eng := r.Engine()
	base := eng.Executor()
	if c, ok := base.(interface{ Close() }); ok {
		defer c.Close()
	}
	var phases *phaseRecorder
	if ls != nil {
		phases = newPhaseRecorder(len(r.Devices()))
		for _, d := range r.Devices() {
			d.Solver.SetPhaseHook(phases.hook(d.ID))
		}
		workers := 1
		if cfg.Parallel {
			workers = min(tensor.MaxWorkers(), len(r.Devices()))
		}
		eng.SetExecutor(&timedExecutor{inner: base, ls: ls, workers: workers, phases: phases})
		eng.SetAggregator(&timedAggregator{inner: eng.Aggregator(), ls: ls})
	}
	evals0 := base.(engine.EvalCounter).GradEvals()
	clk, err := runEngine(eng, r.Evaluator(), ls)
	if err != nil {
		return nil, err
	}
	evals := base.(engine.EvalCounter).GradEvals() - evals0
	if phases != nil {
		phases.fold(ls, cfg.Local.Tau, evals)
	}
	clk.finish(res, t, evals, r.Global())
	return res, nil
}

// referenceRun trains the same task and configuration in-process on the
// Sequential executor and returns the final global model. Given a
// layerStats, it times the solver phases of every device (the optim
// layer of workloads whose devices live behind the wire or the jobs
// plane).
func referenceRun(task fedproxvr.Task, cfg fedproxvr.Config, ls *layerStats) ([]float64, error) {
	cfg.Parallel = false
	r, err := fedproxvr.NewRunner(task, cfg)
	if err != nil {
		return nil, err
	}
	var phases *phaseRecorder
	if ls != nil {
		phases = newPhaseRecorder(len(r.Devices()))
		for _, d := range r.Devices() {
			d.Solver.SetPhaseHook(phases.hook(d.ID))
		}
	}
	ec := r.Engine().Executor().(engine.EvalCounter)
	if _, err := r.RunContext(context.Background()); err != nil {
		return nil, err
	}
	if phases != nil {
		phases.fold(ls, cfg.Local.Tau, ec.GradEvals())
	}
	return r.Global(), nil
}

// sameModel reports whether a and b are bit-identical.
func sameModel(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("model dimension %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("models differ at coordinate %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}
