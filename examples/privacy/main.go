// Privacy example: the two privacy mechanisms layered on the paper's
// algorithm.
//
//  1. Secure aggregation (internal/secure): devices submit pairwise-masked
//     updates; the server recovers the exact weighted average without ever
//     seeing an individual update in the clear — shown once by hand, then
//     as a full training run through the engine (Config.SecureAgg).
//  2. DP-style clipping + noise (Config.DPClip/DPNoise): per-device
//     update norms are bounded and Gaussian noise is added to the
//     aggregate; training still converges at mild settings.
package main

import (
	"fmt"
	"log"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/secure"
)

func main() {
	task := fedproxvr.SyntheticTask(fedproxvr.SyntheticOptions{
		Devices: 6, MinSamples: 60, MaxSamples: 200, Seed: 23,
	})

	// --- Part 1: one secure-aggregation round, by hand. ---
	cfg := fedproxvr.FedProxVR(fedproxvr.SARAH, 5, task.L, 10, 10, 16, 1)
	cfg.Seed = 23
	dim := task.Model.Dim()
	anchor := make([]float64, dim)

	// Every device computes its local model, then masks it (scaled by its
	// data size D_n, so the plain sum of submissions aggregates correctly).
	devices := make([]*engine.Device, len(task.Part.Clients))
	masked := make([][]float64, len(devices))
	var clearAvg []float64 // what a plain server would compute
	totalSamples := 0.0
	clearAvg = make([]float64, dim)
	for id, shard := range task.Part.Clients {
		devices[id] = engine.NewDevice(id, shard, task.Model, cfg.Seed)
		local := devices[id].RunRound(anchor, cfg.Local)
		dN := float64(shard.N())
		totalSamples += dN
		mathx.Axpy(dN, local, clearAvg)

		mk := &secure.Masker{ID: id, N: len(devices), Dim: dim, GroupSeed: 777}
		masked[id] = make([]float64, dim)
		if err := mk.Mask(masked[id], local, dN); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("device %d: leakage ratio of its submission = %.0f× (≫1 ⇒ masked)\n",
			id, secure.LeakageRatio(masked[id], local, dN))
	}
	mathx.Scal(1/totalSamples, clearAvg)

	recovered, err := secure.Aggregate(masked, totalSamples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsecure aggregate vs clear aggregate: max |diff| = %.2g (masks cancel)\n\n",
		maxAbsDiff(recovered, clearAvg))

	// --- Part 1b: the same protocol as the engine's aggregator, over a
	// full training run: every round is masked, the server still converges.
	secCfg := fedproxvr.FedProxVR(fedproxvr.SARAH, 5, task.L, 10, 10, 16, 30)
	secCfg.Seed = 23
	secCfg.EvalEvery = 30
	secCfg.SecureAgg = true
	secSeries, _, err := fedproxvr.Train(task, secCfg)
	if err != nil {
		log.Fatal(err)
	}
	secLast, _ := secSeries.Last()
	fmt.Printf("secure-aggregated training:  final loss %.4f, test acc %5.2f%% "+
		"(no round's models seen in the clear)\n\n", secLast.TrainLoss, secLast.TestAcc*100)

	// --- Part 2: DP clipping + noise over a full training run. ---
	for _, dp := range []struct {
		name        string
		clip, noise float64
	}{
		{"no DP", 0, 0},
		{"clip=2, noise=0.005", 2, 0.005},
		{"clip=2, noise=0.05 (heavy)", 2, 0.05},
	} {
		run := fedproxvr.FedProxVR(fedproxvr.SARAH, 5, task.L, 10, 10, 16, 30)
		run.Seed = 23
		run.Parallel = true
		run.EvalEvery = 30
		run.DPClip = dp.clip
		run.DPNoise = dp.noise
		series, _, err := fedproxvr.Train(task, run)
		if err != nil {
			log.Fatal(err)
		}
		last, _ := series.Last()
		fmt.Printf("%-28s final loss %.4f, test acc %5.2f%%\n",
			dp.name, last.TrainLoss, last.TestAcc*100)
	}
	fmt.Println("\nMild DP barely costs accuracy; heavy noise visibly does — the usual trade-off.")
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
