package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json compare mode needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRecord is one run read back from a result file.
type runRecord struct {
	stamp  stamp
	result result
}

// readRuns reads the runs in a file of concatenated benchmark outputs:
// each result line is paired with the stamp line before it. Untraced runs
// only; other lines are skipped.
func readRuns(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]runRecord{}
	var cur *stamp
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Stamp   *stamp                 `json:"stamp"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Stamp != nil:
			cur = line.Stamp
		case line.Metrics != nil && cur != nil && !cur.Trace:
			var res result
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			out[cur.Workload] = append(out[cur.Workload], runRecord{stamp: *cur, result: res})
			cur = nil
		}
	}
	return out, sc.Err()
}

// verdict judges new against old for one metric: a regression when the
// new median is worse by more than the bound; a gain when new wins at
// least nine tenths of the run pairs and the medians differ by more than
// old's quartile spread; unresolved when either side's own spread exceeds
// the bound and not every new run beats every old run; otherwise no
// change.
func verdict(old, cur []float64, lowerBetter bool, bound float64) (string, float64) {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(cur)
	pairs, wins := min(len(old), len(cur)), 0
	for i := 0; i < pairs; i++ {
		if better(cur[i], old[i]) {
			wins++
		}
	}
	winShare := ratio(float64(wins), float64(pairs))
	worse := (nm - om) / om
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, n := range cur {
		for _, o := range old {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	switch {
	case worse > bound:
		return "regression", winShare
	case winShare >= 0.9 && better(nm, om) && math.Abs(nm-om) > oq3-oq1:
		return "gain", winShare
	case ((oq3-oq1)/om > bound || (nq3-nq1)/nm > bound) && !allBetter:
		return "unresolved", winShare
	}
	return "no change", winShare
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles, the share of run pairs new won, and the verdict
// against the metric's bound.
func compareFiles(specPath, oldPath, newPath string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	old, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRuns(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-16s %30s %30s %6s  %s\n", "workload", "metric",
		"old median [q1, q3] (n)", "new median [q1, q3] (n)", "won", "verdict")
	for _, wl := range sortedKeys(old) {
		if len(cur[wl]) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := values(old[wl], m.Name), values(cur[wl], m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v, won := verdict(ov, nv, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-8s %-16s %30s %30s %5.0f%%  %s (bound %.0f%%)\n", wl, m.Name,
				summary(ov), summary(nv), 100*won, v, 100*m.Bound)
		}
	}
	return nil
}

func values(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(v []float64) string {
	q1, m, q3 := quartiles(v)
	f := func(x float64) string {
		if math.Abs(x) >= 1e4 {
			return fmt.Sprintf("%.0f", x)
		}
		return fmt.Sprintf("%.4g", x)
	}
	return fmt.Sprintf("%s [%s, %s] (%d)", f(m), f(q1), f(q3), len(v))
}
