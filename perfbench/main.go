// Command perfbench is the repository's end-to-end benchmark. It drives the
// public APIs — fedproxvr.NewRunner, the engine, the TCP
// transport.Coordinator/Worker pair and the jobs.Manager — on four named
// workloads, checks that every run computed the right models, and prints
// every metric with its unit; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload synthetic-eval --seed 2020 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with the program's own stats
// and tracing off (except where a workload turns them on itself, as the
// jobs plane's telemetry hub does). --trace 1 alternates untraced and
// traced trials on the same inputs and reports the per-layer metrics,
// timed from this package's own decorators and hooks around each layer's
// public seams; the wall-time ratio of each traced/untraced pair is the
// tracing overhead.
//
// Each run derives a few input sets from --seed and cycles through them
// until --seconds have passed: untraced, at least once through plus a
// repeat of the first; traced, an untraced and a traced trial of each set
// in turn. Every repeated trial must reproduce its set's model bit for bit.
// Per-set medians are averaged, so one unusual input set moves a run's
// figures less.
//
// perfbench --report a.jsonl [b.jsonl] summarises saved result lines: the
// median and quartile spread of every metric, and with a second file
// whether its medians stay within BENCHMARK.json's bounds of the first.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"fedproxvr/internal/randx"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 2020, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "how long to measure")
		traced   = flag.Int("trace", 0, "1: report per-layer metrics from traced trials")
		stateDir = flag.String("state-dir", ".bench_build", "directory for state the jobs plane writes (removed after each trial)")
		report   = flag.Bool("report", false, "summarise saved result lines (files as arguments) instead of running")
	)
	flag.Parse()
	if *report {
		if err := runReport(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := lookup(*name, *stateDir)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out.print(os.Stdout, *seed)
	if !out.correct() {
		os.Exit(1)
	}
}

// subSeed derives the i-th input seed of a run from its --seed: positive,
// so every generator accepts it, and distinct per stream.
func subSeed(seed int64, i int) int64 {
	return int64(uint64(randx.DeriveSeed(seed, int64(i)))>>2) + 1
}

// outcome is everything one run measured and checked.
type outcome struct {
	w        *workload
	traced   bool
	trials   []*trialResult
	ls       *layerStats
	cpuUtil  float64
	checks   []string // failed correctness checks
	nChecks  int
	attempts int
	failures int
}

func (o *outcome) correct() bool { return len(o.checks) == 0 && o.failures == 0 }

func (o *outcome) check(ok bool, format string, args ...any) {
	o.nChecks++
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

// run measures one workload for about the given time.
func run(w *workload, seed int64, window time.Duration, traced bool) (*outcome, error) {
	seeds := make([]int64, w.datasets)
	for i := range seeds {
		seeds[i] = subSeed(seed, i)
	}
	o := &outcome{w: w, traced: traced}
	// Untraced, every input set runs at least once and the first twice;
	// traced, the first set's traced trial is the repeat of its untraced one.
	minTrials := w.datasets + 1
	if traced {
		o.ls = &layerStats{}
		minTrials = 2
	}
	u0 := readUsage()
	start := time.Now()
	for k := 0; ; k++ {
		d, tr := k%w.datasets, false
		if traced {
			d, tr = (k/2)%w.datasets, k%2 == 1
		}
		var ls *layerStats
		if tr {
			ls = o.ls
		}
		resetPeak()
		res, err := w.trial(w.target, seeds[d], ls)
		if err != nil {
			return nil, fmt.Errorf("input set %d: %w", d, err)
		}
		res.Dataset, res.Traced, res.PeakMB = d, tr, peakRSS()
		o.trials = append(o.trials, res)
		if k+1 >= minTrials && time.Since(start) >= window {
			break
		}
	}
	u1 := readUsage()
	o.cpuUtil = cpuUtil(u0, u1)

	// Correctness gate.
	for d := range seeds {
		var first *trialResult
		for _, res := range o.trials {
			if res.Dataset != d {
				continue
			}
			o.attempts += res.Attempted
			o.failures += res.Failed
			o.check(!math.IsNaN(res.TTT), "input set %d: quality target (loss ≤ %v) not reached", d, w.target.MaxLoss)
			if first == nil {
				first = res
				continue
			}
			o.check(len(res.Models) == len(first.Models), "input set %d: %d models vs %d", d, len(res.Models), len(first.Models))
			for i := range res.Models {
				if i < len(first.Models) {
					err := sameModel(first.Models[i], res.Models[i])
					o.check(err == nil, "input set %d: repeated trial changed the final model: %v", d, err)
				}
			}
		}
		if w.check != nil && first != nil {
			var ls *layerStats
			if traced {
				ls = o.ls
			}
			err := w.check(seeds[d], first, ls)
			o.check(err == nil, "input set %d: %v", d, err)
		}
	}
	return o, nil
}

// perInput returns the mean over input sets of the median over that
// set's untraced trials of f.
func (o *outcome) perInput(f func(*trialResult) float64) float64 {
	var means []float64
	for d := 0; d < o.w.datasets; d++ {
		var xs []float64
		for _, res := range o.trials {
			if res.Dataset == d && !res.Traced {
				xs = append(xs, f(res))
			}
		}
		if len(xs) > 0 {
			means = append(means, median(xs))
		}
	}
	return mean(means)
}

// metric is one named, unit-bearing figure. na marks a figure the
// workload has no such quantity for: "n/a" in the text report, 0 in the
// JSON line (which admits numbers only).
type metric struct {
	Name  string
	Unit  string
	Value float64
	NA    bool
	Note  string
}

func (o *outcome) endToEnd() []metric {
	var rounds []float64
	for _, res := range o.trials {
		if !res.Traced {
			rounds = append(rounds, res.RoundMs...)
		}
	}
	tl, tailOK := blockTail(rounds)
	bytes := o.perInput(func(r *trialResult) float64 { return r.BytesPerRound })
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(o.collect(func(r *trialResult) float64 { return r.SetupS })),
			Note: fmt.Sprintf("median of %d set-ups", len(o.trials))},
		{Name: "time_to_target_s", Unit: "s", Value: o.perInput(func(r *trialResult) float64 { return r.TTT }),
			Note: fmt.Sprintf("first evaluation with training loss ≤ %v", o.w.target.MaxLoss)},
		{Name: "rounds_per_s", Unit: "1/s", Value: o.perInput(func(r *trialResult) float64 { return float64(len(r.RoundMs)) / r.WallS })},
		{Name: "round_ms.p50", Unit: "ms", Value: o.perInput(func(r *trialResult) float64 { return median(r.RoundMs) })},
		{Name: "round_ms.tail", Unit: "ms", Value: tl.Value, NA: !tailOK,
			Note: fmt.Sprintf("median of the p%.1f of %d block(s), %d rounds in all, %d beyond in each", tl.Percentile, tl.Blocks, tl.N, tl.Beyond)},
		{Name: "grad_evals_per_s", Unit: "1/s", Value: o.perInput(func(r *trialResult) float64 { return float64(r.GradEvals) / r.WallS })},
		{Name: "bytes_per_round", Unit: "B", Value: bytes, NA: bytes == 0, Note: "sent + received on the coordinator's connections"},
		{Name: "final_train_loss", Unit: "loss", Value: o.perInput(func(r *trialResult) float64 { return r.FinalLoss })},
		{Name: "final_test_acc", Unit: "fraction", Value: o.perInput(func(r *trialResult) float64 { return r.FinalAcc })},
		{Name: "makespan_s", Unit: "s", Value: o.perInput(func(r *trialResult) float64 { return r.WallS }), Note: o.w.makespan},
		{Name: "peak_rss_mb", Unit: "MiB", Value: o.perInput(func(r *trialResult) float64 { return r.PeakMB }),
			Note: "resident-set high-water mark of a trial"},
		{Name: "failed_frac", Unit: "fraction", Value: o.failedFrac(),
			Note: fmt.Sprintf("%d of %d device reports, jobs and checks", o.failed(), o.attempted())},
	}
}

func (o *outcome) collect(f func(*trialResult) float64) []float64 {
	xs := make([]float64, len(o.trials))
	for i, res := range o.trials {
		xs[i] = f(res)
	}
	return xs
}

func (o *outcome) attempted() int { return o.attempts + o.nChecks }
func (o *outcome) failed() int    { return o.failures + len(o.checks) }
func (o *outcome) failedFrac() float64 {
	return float64(o.failed()) / float64(max(o.attempted(), 1))
}

// gated are the end-to-end metrics of the JSON line (BENCHMARK.json's
// end_to_end list): those every workload has and that are never zero.
// bytes_per_round (one workload moves bytes) and failed_frac (zero on a
// correct run; the line's attempted/failed carry it) are text-only.
var gated = map[string]bool{
	"setup_s": true, "time_to_target_s": true, "rounds_per_s": true, "round_ms.p50": true,
	"round_ms.tail": true, "grad_evals_per_s": true, "final_train_loss": true,
	"final_test_acc": true, "makespan_s": true, "peak_rss_mb": true,
}

// result is the JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// digests names each input set's final model(s) by a short SHA-256, so
// runs with the same seed can be compared for bit-identity.
func (o *outcome) digests() string {
	var parts []string
	for d := 0; d < o.w.datasets; d++ {
		for _, res := range o.trials {
			if res.Dataset != d {
				continue
			}
			h := sha256.New()
			for _, m := range res.Models {
				for _, v := range m {
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			parts = append(parts, fmt.Sprintf("set%d=%x", d, h.Sum(nil)[:6]))
			break
		}
	}
	return strings.Join(parts, " ")
}

func (o *outcome) print(f io.Writer, seed int64) {
	fmt.Fprintf(f, "# perfbench %s seed=%d trace=%v: %s\n", o.w.name, seed, o.traced, o.w.why)
	fmt.Fprintf(f, "# %s trials=%d input_sets=%d\n", stamp(), len(o.trials), o.w.datasets)
	fmt.Fprintf(f, "# final models: %s\n", o.digests())
	for _, c := range o.checks {
		fmt.Fprintf(f, "# FAILED CHECK: %s\n", c)
	}
	out := result{Correct: o.correct(), Attempted: o.attempted(), Failed: o.failed(), Metrics: map[string]metricJSON{}}
	emit := func(m metric, inJSON bool) {
		val := "n/a"
		if !m.NA {
			val = fmt.Sprintf("%.6g %s", m.Value, m.Unit)
		}
		line := fmt.Sprintf("%-30s %s", m.Name, val)
		if m.Note != "" && !m.NA {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(f, line)
		if inJSON {
			v := m.Value
			if m.NA || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
		}
	}
	fmt.Fprintln(f, "## end-to-end (untraced trials)")
	for _, m := range o.endToEnd() {
		emit(m, !o.traced && gated[m.Name])
	}
	if o.traced {
		fmt.Fprintln(f, "## per-layer (traced trials)")
		for _, m := range o.perLayer() {
			emit(m, !informational[m.Name])
		}
	}
	b, _ := json.Marshal(out) // finite numbers and strings only: cannot fail
	fmt.Fprintln(f, string(b))
}
