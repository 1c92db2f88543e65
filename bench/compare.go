package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one (workload, metric) pair between two result files.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to two sets of runs.  The change is
// the shift of the median as a share of a's median, signed so that
// positive is worse.  A spread (interquartile range over median) wider
// than the bound on either side means the runs cannot resolve a change
// of that size: unresolved, not same.
func judge(m metricSpec, a, b []float64) (sa, sb spread, worse float64, verdict string) {
	sa, sb = spreadOf(a), spreadOf(b)
	worse = ratio(sb.Median-sa.Median, sa.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case sa.IQROverMedian > m.Bound || sb.IQROverMedian > m.Bound:
		verdict = verdictUnresolved
	case worse > m.Bound:
		verdict = verdictWorse
	case worse < -m.Bound:
		verdict = verdictBetter
	default:
		verdict = verdictSame
	}
	return
}

func loadReport(path string) (*reportDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc reportDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// values collects one end-to-end metric of one workload over a
// report's untraced runs.
func (d *reportDoc) values(workload, metric string) []float64 {
	var vals []float64
	for _, r := range d.Runs {
		if r.Workload == workload && !r.Traced {
			vals = append(vals, r.Metrics[metric])
		}
	}
	return vals
}

// compareFiles prints one row per (workload, end-to-end metric) and
// fails if any is worse.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %s  nproc %d\nb: %s  commit %s  nproc %d\n", pathA, a.Env.Commit, a.Env.NProc, pathB, b.Env.Commit, b.Env.NProc)
	fmt.Fprintf(w, "%-16s %-26s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "worse%", "a iqr%", "b iqr%", "bound%", "verdict")
	worseRows := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-26s %12s %12s\n", wl.Name, m.Name, "-", "-")
				continue
			}
			sa, sb, worse, verdict := judge(m, va, vb)
			if verdict == verdictWorse {
				worseRows++
			}
			fmt.Fprintf(w, "%-16s %-26s %12.4f %12.4f %8.2f %8.2f %8.2f %6.1f  %s\n",
				wl.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*sa.IQROverMedian, 100*sb.IQROverMedian, 100*m.Bound, verdict)
		}
	}
	if worseRows > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worseRows)
	}
	return nil
}
