package main

import (
	"strings"

	fedproxvr "fedproxvr"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name, why string
	// datasets is how many input sets a run derives from its seed and
	// cycles through.
	datasets int
	target   target
	makespan string // what a trial's wall time spans
	trial    func(t target, seed int64, ls *layerStats) (*trialResult, error)
	// check is the workload's reference comparison, made once per input
	// set on its first trial; nil when the repeat check suffices.
	check func(seed int64, res *trialResult, ls *layerStats) error
}

// The workloads' training configurations. All data is procedural. The
// image workloads give every device the same number of samples, so the
// work per round does not depend on the seed.
var (
	// Synthetic(1,1), 100 power-law devices (37–3277 samples), softmax
	// dim 610, fedsim's defaults: SARAH β=5 τ=20 B=16 μ=0.1, Parallel
	// executor, evaluation every round.
	syntheticEval inprocSpec = func(seed int64) (fedproxvr.Task, fedproxvr.Config, error) {
		task := fedproxvr.SyntheticTask(fedproxvr.SyntheticOptions{Seed: seed})
		cfg := fedproxvr.FedProxVR(fedproxvr.SARAH, 5, task.L, 0.1, 20, 16, 14)
		cfg.Seed, cfg.Parallel, cfg.EvalEvery = seed, true, 1
		return task, cfg, nil
	}
	// Paper Fig. 3's two-layer CNN on procedural digits, 10 devices, SVRG
	// β=7, thinned to fit a run: width divisor 8, 100 samples per class,
	// 60 per device, τ=5, B=8, evaluation every 4 rounds.
	cnnCompute inprocSpec = func(seed int64) (fedproxvr.Task, fedproxvr.Config, error) {
		task, err := fedproxvr.CNNTask(fedproxvr.ImageOptions{
			Style: fedproxvr.Digits, SamplesPerClass: 100, MinSamples: 60, MaxSamples: 60, Seed: seed,
		}, 8)
		if err != nil {
			return task, fedproxvr.Config{}, err
		}
		cfg := fedproxvr.FedProxVR(fedproxvr.SVRG, 7, task.L, 0.1, 5, 8, 12)
		cfg.Seed, cfg.Parallel, cfg.EvalEvery = seed, true, 4
		return task, cfg, nil
	}
	// Paper Fig. 2's convex model (softmax, dim 7850) on procedural
	// Fashion: 2 devices of 300 samples and 5 labels each, one per worker
	// connection, SARAH β=5 τ=5 B=16 μ=0.1, evaluation every 5 rounds.
	fashionTCP inprocSpec = func(seed int64) (fedproxvr.Task, fedproxvr.Config, error) {
		task, err := fedproxvr.ImageTask(fedproxvr.ImageOptions{
			Style: fedproxvr.Fashion, Devices: 2, LabelsPerDevice: 5,
			SamplesPerClass: 120, MinSamples: 300, MaxSamples: 300, Seed: seed,
		})
		if err != nil {
			return task, fedproxvr.Config{}, err
		}
		cfg := fedproxvr.FedProxVR(fedproxvr.SARAH, 5, task.L, 0.1, 5, 16, 100)
		cfg.Seed, cfg.EvalEvery, cfg.Test = seed, 5, task.Test
		return task, cfg, nil
	}
	// Three synthetic jobs of 20 devices on fedserver's job defaults.
	jobsCkpt = jobsWorkload{jobs: 3, devices: 20, rounds: 12}
)

// Each quality target is a training loss every input set reaches within
// its rounds: over the input sets of seeds 1–20, the worst best loss was
// 2.07 (synthetic-eval), 1.70 (cnn-compute), 1.42 (fashion-tcp) and 1.62
// (jobs-ckpt, one job of seed 49 reaching only 1.70).
func workloads(stateDir string) []*workload {
	return []*workload{
		{
			name: "synthetic-eval", datasets: 8, target: target{MaxLoss: 2.15},
			why:      "Synthetic(1,1) on 100 power-law devices with evaluation every round: evaluate and execute each take about half a round",
			makespan: "14 rounds",
			trial: func(t target, seed int64, ls *layerStats) (*trialResult, error) {
				return inprocTrial(syntheticEval, t, seed, ls)
			},
		},
		{
			name: "cnn-compute", datasets: 3, target: target{MaxLoss: 2.27},
			why:      "two-layer CNN on 10 devices with sparse evaluation: the GEMM and im2col kernels do nearly all the work",
			makespan: "12 rounds",
			trial: func(t target, seed int64, ls *layerStats) (*trialResult, error) {
				return inprocTrial(cnnCompute, t, seed, ls)
			},
		},
		{
			name: "fashion-tcp", datasets: 6, target: target{MaxLoss: 1.5},
			why:      "softmax (dim 7850) over loopback TCP with 2 workers, one per core: the only workload that moves bytes on a wire",
			makespan: "100 rounds",
			trial: func(t target, seed int64, ls *layerStats) (*trialResult, error) {
				return tcpTrial(fashionTCP, t, seed, ls)
			},
			check: func(seed int64, res *trialResult, ls *layerStats) error {
				return tcpCheck(fashionTCP, seed, res, ls)
			},
		},
		{
			name: "jobs-ckpt", datasets: 6, target: target{MaxLoss: 1.9},
			why:      "3 synthetic jobs on the jobs plane, 1 slot, telemetry and an fsync'd checkpoint every round: durable writes and slot hand-off",
			makespan: "3 jobs × 12 rounds, first Submit to last job done",
			trial: func(t target, seed int64, ls *layerStats) (*trialResult, error) {
				return jobsCkpt.trial(stateDir, t, seed, ls)
			},
			check: jobsCkpt.check,
		},
	}
}

func lookup(name, stateDir string) (*workload, bool) {
	for _, w := range workloads(stateDir) {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads("") {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
