package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	fedproxvr "fedproxvr"
	"fedproxvr/internal/core"
	"fedproxvr/internal/engine"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/transport"
)

// tcpTrial runs one trial of a flat-TCP workload in this process: a
// coordinator on loopback and one worker goroutine per device, each with
// its own connection, in fedserver's default mode (exact float64 codec).
// Set-up covers building the task, the workers' handshakes and the
// engine. Traced, the transport executor is decorated (execute time and
// coordinator byte deltas), the aggregator is timed, and a stats recorder
// reads the workers' reported solve times from each round record.
func tcpTrial(spec inprocSpec, t target, seed int64, ls *layerStats) (*trialResult, error) {
	t0 := time.Now()
	task, cfg, err := spec(seed)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := len(task.Part.Clients)
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	werrs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w, err := transport.NewWorker(addr, id, task.Part.Clients[id], task.Model, cfg.Seed)
			if err != nil {
				werrs[id] = err
				return
			}
			werrs[id] = w.Serve()
		}(id)
	}
	coord, err := transport.NewCoordinatorOn(ln, n, 30*time.Second)
	if err != nil {
		wg.Wait()
		return nil, err
	}
	shutdown := func() error {
		coord.Shutdown()
		wg.Wait()
		err := coord.Close()
		for id, werr := range werrs {
			if werr != nil {
				return fmt.Errorf("worker %d: %w", id, werr)
			}
		}
		return err
	}
	w0 := make([]float64, task.Model.Dim())
	if task.InitW != nil {
		copy(w0, task.InitW)
	}
	eng, err := coord.Engine(w0, cfg, task.Model, task.Part.Clients)
	if err != nil {
		_ = shutdown()
		return nil, err
	}
	res := &trialResult{SetupS: time.Since(t0).Seconds()}
	base := eng.Executor()
	if ls != nil {
		eng.SetExecutor(&timedExecutor{inner: base, ls: ls, workers: n, coord: coord})
		eng.SetAggregator(&timedAggregator{inner: eng.Aggregator(), ls: ls})
		eng.SetStats(&wireRecorder{ls: ls})
	}
	ev := &engine.Evaluator{Model: task.Model, Clients: task.Part.Clients, Weights: coord.Weights(), Test: cfg.Test}
	sent0, recv0 := coord.Bandwidth()
	evals0 := base.(engine.EvalCounter).GradEvals()
	clk, err := runEngine(eng, ev, ls)
	if err != nil {
		_ = shutdown()
		return nil, err
	}
	sent1, recv1 := coord.Bandwidth()
	evals := base.(engine.EvalCounter).GradEvals() - evals0
	clk.finish(res, t, evals, eng.Global())
	res.BytesPerRound = float64(sent1-sent0+recv1-recv0) / float64(len(clk.roundMs))
	if err := shutdown(); err != nil {
		return nil, err
	}
	return res, nil
}

// tcpCheck verifies that the distributed run reproduced, bit for bit, an
// untimed in-process Sequential run over the same partition and seed —
// the invariant examples/distributed checks. Traced, the reference run
// also gives the optim layer (the TCP workers' solvers are not reachable
// from outside) and the paper's cost-model loop.
func tcpCheck(spec inprocSpec, seed int64, res *trialResult, ls *layerStats) error {
	task, cfg, err := spec(seed)
	if err != nil {
		return err
	}
	ref, err := referenceRun(task, cfg, ls)
	if err != nil {
		return err
	}
	if err := sameModel(ref, res.Models[0]); err != nil {
		return fmt.Errorf("TCP run vs in-process Sequential run: %w", err)
	}
	if ls != nil && ls.paper == nil {
		ls.paper = closeLoop(task, ls)
	}
	return nil
}

// closeLoop feeds the measured delays into the Section 4.3 optimizer:
// d_cmp is the inner-loop time per local iteration, d_com the median
// per-round exchange time (slowest client's round trip minus its reported
// solve time), L the task's smoothness estimate and σ̄² the sampled
// divergence of Assumption 1.
func closeLoop(task fedproxvr.Task, ls *layerStats) *paperLoop {
	p := &paperLoop{l: task.L}
	if ls.innerIters > 0 {
		p.dCmpMs = ls.innerS / float64(ls.innerIters) * 1e3
	}
	p.dComMs = median(ls.exchangeMs)
	p.gamma = p.dCmpMs / p.dComMs
	p.sigmaBar2 = core.EstimateSigmaBar2(task.Model, task.Part, 4, 0.5, randx.New(1))
	problem := fedproxvr.Problem{L: task.L, SigmaBar2: p.sigmaBar2}
	if math.IsNaN(p.gamma) || math.IsInf(p.gamma, 0) || p.gamma <= 0 {
		return p
	}
	opt := problem.Minimize23(p.gamma)
	p.betaOpt, p.muOpt, p.feasible = opt.Beta, opt.Mu, opt.Feasible
	return p
}
