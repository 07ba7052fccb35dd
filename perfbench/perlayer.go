package main

import (
	"fmt"
	"math"
)

// informational are the per-layer figures printed in the text report only:
// the paper's cost-model loop, which no optimisation targets directly.
var informational = map[string]bool{
	"paper.d_cmp_ms": true, "paper.d_com_ms": true, "paper.gamma": true,
	"paper.beta_opt": true, "paper.mu_opt": true,
}

// perLayer derives the per-layer metrics of the traced trials. Figures of a
// layer the workload does not exercise are n/a.
func (o *outcome) perLayer() []metric {
	ls := o.ls
	rounds := float64(max(ls.rounds, 1))
	perRoundMs := func(s float64) float64 { return s / rounds * 1e3 }
	noEngine := ls.execS == 0 && ls.evalS == 0
	noSolves := ls.solves == 0
	noWire := ls.bytesSent == 0 && ls.bytesRecv == 0
	noJobs := len(ls.submitMs) == 0

	solveMax := math.NaN()
	for _, s := range ls.solveMs {
		if math.IsNaN(solveMax) || s > solveMax {
			solveMax = s
		}
	}
	solveNote := fmt.Sprintf("%d device solves", len(ls.solveMs))
	if ls.solveMaxMs > 0 { // jobs: per-round latency summaries from telemetry
		solveMax = ls.solveMaxMs
		solveNote = fmt.Sprintf("median of %d per-round client p50s", len(ls.solveMs))
	}
	var exchangeS float64
	for _, e := range ls.exchangeMs {
		exchangeS += e / 1e3
	}

	// Tracing overhead: traced vs untraced wall of the same input set.
	var overhead []float64
	for d := 0; d < o.w.datasets; d++ {
		var plain, traced []float64
		for _, res := range o.trials {
			if res.Dataset != d {
				continue
			}
			if res.Traced {
				traced = append(traced, res.WallS)
			} else {
				plain = append(plain, res.WallS)
			}
		}
		if len(plain) > 0 && len(traced) > 0 {
			overhead = append(overhead, median(traced)/median(plain)-1)
		}
	}

	ms := []metric{
		{Name: "engine.evaluate_ms", Unit: "ms", Value: perRoundMs(ls.evalS), NA: noEngine, Note: "per round"},
		{Name: "engine.evaluate_share", Unit: "share", Value: ls.evalS / ls.wallS, NA: noEngine, Note: "of round wall time"},
		{Name: "engine.execute_ms", Unit: "ms", Value: perRoundMs(ls.execS), NA: noEngine, Note: "per round"},
		{Name: "engine.aggregate_ms", Unit: "ms", Value: perRoundMs(ls.aggS), NA: noEngine, Note: "per round"},
		{Name: "engine.solve_ms.p50", Unit: "ms", Value: median(ls.solveMs), NA: len(ls.solveMs) == 0, Note: solveNote},
		{Name: "engine.solve_ms.max", Unit: "ms", Value: solveMax, NA: math.IsNaN(solveMax)},
		{Name: "engine.parallel_idle_share", Unit: "share", Value: 1 - ls.solveSumS/ls.workerExecS,
			NA: ls.solveSumS == 0 || ls.workerExecS == 0, Note: "1 − Σ solve / (pool workers × execute wall)"},
		{Name: "optim.anchor_grad_ms", Unit: "ms", Value: ls.anchorS / float64(max(ls.solves, 1)) * 1e3, NA: noSolves, Note: "per device solve"},
		{Name: "optim.inner_loop_ms", Unit: "ms", Value: ls.innerS / float64(max(ls.solves, 1)) * 1e3, NA: noSolves, Note: "per device solve"},
		{Name: "optim.ns_per_grad_eval", Unit: "ns", Value: (ls.anchorS + ls.innerS) / float64(max(ls.phaseEvals, 1)) * 1e9, NA: noSolves},
		{Name: "optim.grad_evals_per_round", Unit: "count", Value: float64(ls.gradEvals) / rounds, NA: ls.gradEvals == 0},
		{Name: "transport.bytes_sent_per_round", Unit: "B", Value: float64(ls.bytesSent) / rounds, NA: noWire},
		{Name: "transport.bytes_recv_per_round", Unit: "B", Value: float64(ls.bytesRecv) / rounds, NA: noWire},
		{Name: "transport.exchange_ms", Unit: "ms", Value: median(ls.exchangeMs), NA: len(ls.exchangeMs) == 0,
			Note: "median round: slowest client's round trip − its reported solve"},
		{Name: "transport.comm_share", Unit: "share", Value: exchangeS / ls.wallS, NA: len(ls.exchangeMs) == 0, Note: "of round wall time"},
		{Name: "transport.retries", Unit: "count", Value: float64(ls.retries), NA: noWire},
		{Name: "transport.failed_reports", Unit: "count", Value: float64(ls.failed), NA: noWire},
		{Name: "jobs.submit_ms", Unit: "ms", Value: median(ls.submitMs), NA: noJobs},
		{Name: "jobs.round_gap_ms", Unit: "ms", Value: perRoundMs(ls.gapS), NA: noJobs,
			Note: "makespan outside engine phases, per job round: checkpoints, slot hand-off, job start"},
		{Name: "jobs.slot_busy_share", Unit: "share", Value: ls.busyS / ls.wallS, NA: noJobs, Note: "engine phases over makespan"},
		{Name: "telemetry.samples", Unit: "count", Value: float64(ls.telemetrySamples), NA: noJobs,
			Note: fmt.Sprintf("must equal the %d job rounds", ls.rounds)},
		{Name: "telemetry.alerts", Unit: "count", Value: float64(ls.alerts), NA: noJobs, Note: "must be 0"},
		{Name: "proc.cpu_util", Unit: "share", Value: o.cpuUtil, Note: "CPU s / (nproc × wall), whole run"},
		{Name: "trace.overhead_share", Unit: "share", Value: mean(overhead), NA: len(overhead) == 0,
			Note: "traced / untraced trial wall − 1"},
	}
	if p := ls.paper; p != nil {
		ms = append(ms,
			metric{Name: "paper.d_cmp_ms", Unit: "ms", Value: p.dCmpMs, Note: "inner-loop time per local iteration"},
			metric{Name: "paper.d_com_ms", Unit: "ms", Value: p.dComMs, Note: "median exchange per round"},
			metric{Name: "paper.gamma", Unit: "ratio", Value: p.gamma, Note: "d_cmp / d_com"},
			metric{Name: "paper.beta_opt", Unit: "beta", Value: p.betaOpt, NA: !p.feasible,
				Note: fmt.Sprintf("Minimize23 at measured γ, L=%.4g, σ̄²=%.4g", p.l, p.sigmaBar2)},
			metric{Name: "paper.mu_opt", Unit: "mu", Value: p.muOpt, NA: !p.feasible},
		)
	}
	return ms
}
