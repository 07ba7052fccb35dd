package main

import (
	"sync"
	"time"

	"fedproxvr/internal/engine"
	"fedproxvr/internal/obs"
	"fedproxvr/internal/trace"
	"fedproxvr/internal/transport"
)

// layerStats accumulates the per-layer figures of traced runs. Every
// figure is taken from the benchmark's own timing around public seams of
// the program: executor and aggregator decorators, timed evaluator calls,
// solver phase hooks, coordinator byte counters, worker-reported solve
// times, and the jobs plane's telemetry series.
type layerStats struct {
	rounds int
	wallS  float64 // Σ round wall time

	// engine
	evalS, execS, aggS float64
	solveMs            []float64 // one entry per device solve (jobs: per-round median)
	solveMaxMs         float64   // jobs: largest per-round p99 client latency
	solveSumS          float64   // Σ device solve seconds
	workerExecS        float64   // Σ pool workers × execute wall

	// optim (solver phase hooks)
	anchorS, innerS float64
	innerIters      int // Σ τ over timed solves
	solves          int
	phaseEvals      int64 // gradient evaluations of the timed solves

	gradEvals int64 // Σ per-round gradient evaluations of the run itself

	// transport
	bytesSent, bytesRecv int64
	exchangeMs           []float64 // per round
	retries, failed      int

	// jobs, checkpoint, telemetry
	submitMs         []float64
	gapS, busyS      float64 // Σ per-round time outside engine phases, Σ engine phases
	telemetrySamples int
	alerts           int

	// paper (fashion-tcp)
	paper *paperLoop
}

// paperLoop is the Section 4.3 cost model closed on measured delays.
type paperLoop struct {
	dCmpMs, dComMs, gamma float64
	sigmaBar2, l          float64
	betaOpt, muOpt        float64
	feasible              bool
}

// timedExecutor decorates an engine.Executor with execute-phase timing.
// It forwards every optional executor contract the engine type-asserts
// (RoundBeginner, EvalCounter, StatsSource, TraceSource): dropping
// BeginRound would silently leave every device's RNG stream on the
// previous round's key, which the benchmark's bit-identity check catches.
type timedExecutor struct {
	inner   engine.Executor
	ls      *layerStats
	workers int
	phases  *phaseRecorder         // in-process devices; nil over TCP
	coord   *transport.Coordinator // TCP byte counters; nil in-process
}

func (x *timedExecutor) RunClients(anchor []float64, selected []int) ([][]float64, error) {
	var s0, r0 int64
	if x.coord != nil {
		s0, r0 = x.coord.Bandwidth()
	}
	t0 := time.Now()
	locals, err := x.inner.RunClients(anchor, selected)
	wall := time.Since(t0).Seconds()
	x.ls.execS += wall
	x.ls.workerExecS += float64(x.workers) * wall
	if x.coord != nil {
		s1, r1 := x.coord.Bandwidth()
		x.ls.bytesSent += s1 - s0
		x.ls.bytesRecv += r1 - r0
	}
	if x.phases != nil {
		for _, id := range selected {
			s := x.phases.take(id)
			x.ls.solveMs = append(x.ls.solveMs, s*1e3)
			x.ls.solveSumS += s
		}
	}
	return locals, err
}

func (x *timedExecutor) BeginRound(t int) {
	if rb, ok := x.inner.(engine.RoundBeginner); ok {
		rb.BeginRound(t)
	}
}

func (x *timedExecutor) GradEvals() int64 {
	if ec, ok := x.inner.(engine.EvalCounter); ok {
		return ec.GradEvals()
	}
	return 0
}

func (x *timedExecutor) EnableStats(on bool) {
	if ss, ok := x.inner.(engine.StatsSource); ok {
		ss.EnableStats(on)
	}
}

func (x *timedExecutor) CollectStats(rs *obs.RoundStats) {
	if ss, ok := x.inner.(engine.StatsSource); ok {
		ss.CollectStats(rs)
	}
}

func (x *timedExecutor) SetTracer(tr *trace.Tracer) {
	if ts, ok := x.inner.(engine.TraceSource); ok {
		ts.SetTracer(tr)
	}
}

// timedAggregator decorates an engine.Aggregator with fold timing.
type timedAggregator struct {
	inner engine.Aggregator
	ls    *layerStats
}

func (a *timedAggregator) Aggregate(w []float64, selected []int, locals [][]float64) error {
	t0 := time.Now()
	err := a.inner.Aggregate(w, selected, locals)
	a.ls.aggS += time.Since(t0).Seconds()
	return err
}

// phaseRecorder times the solver's "anchor-grad" and "inner-loop" phases
// per device through optim.Solver.SetPhaseHook. A device is solved by one
// goroutine at a time and the executor's fan-out returns only after every
// solve ended, so per-device slots need no lock; the totals are folded
// under mu because different devices finish on different goroutines.
type phaseRecorder struct {
	mu      sync.Mutex
	anchorS float64
	innerS  float64
	solves  int
	pending []float64 // per device: solve seconds not yet taken by the executor
}

func newPhaseRecorder(devices int) *phaseRecorder {
	return &phaseRecorder{pending: make([]float64, devices)}
}

// hook returns device id's phase hook.
func (p *phaseRecorder) hook(id int) func(string) func() {
	return func(name string) func() {
		t0 := time.Now()
		return func() {
			d := time.Since(t0).Seconds()
			p.pending[id] += d
			p.mu.Lock()
			if name == "anchor-grad" {
				p.anchorS += d
				p.solves++
			} else {
				p.innerS += d
			}
			p.mu.Unlock()
		}
	}
}

// take returns and clears device id's solve seconds since the last take.
func (p *phaseRecorder) take(id int) float64 {
	s := p.pending[id]
	p.pending[id] = 0
	return s
}

// fold adds the recorded phase totals of solves with tau local iterations
// and evals gradient evaluations into ls, and resets the recorder.
func (p *phaseRecorder) fold(ls *layerStats, tau int, evals int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ls.anchorS += p.anchorS
	ls.innerS += p.innerS
	ls.solves += p.solves
	ls.innerIters += p.solves * tau
	ls.phaseEvals += evals
	p.anchorS, p.innerS, p.solves = 0, 0, 0
}

// wireRecorder is the engine stats recorder of traced TCP runs: it reads
// the workers' self-reported solve times and the coordinator's retry and
// failure counts out of each round record.
type wireRecorder struct {
	ls *layerStats
}

func (w *wireRecorder) RecordRound(rs *obs.RoundStats) {
	w.ls.retries += rs.Retries
	w.ls.failed += rs.Failed
	var slowest obs.ClientStat
	for _, c := range rs.Clients {
		w.ls.solveMs = append(w.ls.solveMs, c.SolveSeconds*1e3)
		w.ls.solveSumS += c.SolveSeconds
		if c.Seconds > slowest.Seconds {
			slowest = c
		}
	}
	if len(rs.Clients) > 0 {
		w.ls.exchangeMs = append(w.ls.exchangeMs, (slowest.Seconds-slowest.SolveSeconds)*1e3)
	}
}
