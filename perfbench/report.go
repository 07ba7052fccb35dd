package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults reads the result lines (the last line of each run) saved one
// per line in path.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func metricValues(rs []result) map[string][]float64 {
	vals := map[string][]float64{}
	for _, r := range rs {
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	return vals
}

// runReport prints, for one or two files of saved result lines, each
// metric's median and quartile spread (as a share of the median), and for
// two files whether the second set's median of each end-to-end metric
// stays within BENCHMARK.json's bound of the first's.
func runReport(paths []string) error {
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("--report takes one or two result files")
	}
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	var sets []map[string][]float64
	for _, p := range paths {
		rs, err := readResults(p)
		if err != nil {
			return err
		}
		for i, r := range rs {
			if !r.Correct || r.Failed != 0 {
				return fmt.Errorf("%s: run %d failed its checks", p, i+1)
			}
		}
		sets = append(sets, metricValues(rs))
	}
	names := make([]string, 0, len(sets[0]))
	for k := range sets[0] {
		names = append(names, k)
	}
	sort.Strings(names)
	ok := true
	for _, k := range names {
		line := fmt.Sprintf("%-30s n=%-3d median=%-12.6g spread=%.4f", k, len(sets[0][k]), median(sets[0][k]), relIQR(sets[0][k]))
		if bound, gated := bounds[k]; gated {
			line += fmt.Sprintf(" bound=%.2f", bound)
			if k != "setup_s" && relIQR(sets[0][k]) > bound/3 {
				line += " SPREAD>bound/3"
			}
			if len(sets) == 2 {
				m0, m1 := median(sets[0][k]), median(sets[1][k])
				line += fmt.Sprintf(" second=%-12.6g worse_by=%+.4f", m1, worseBy(m0, m1, better[k]))
				if !withinBound(m0, m1, bound, better[k]) {
					line += " REGRESSED"
					ok = false
				}
			}
		}
		fmt.Println(line)
	}
	if !ok {
		return fmt.Errorf("a median moved beyond its bound")
	}
	return nil
}
