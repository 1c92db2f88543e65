package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// testScale keeps the whole package under ten seconds; `-quick` on the
// command line runs the same checks at 2 000 works / 4 000 notes.
var testScale = scale{works: 300, notes: 1_000, scores: 10}

func testConfig(t *testing.T, ops int) runConfig {
	t.Helper()
	dir := t.TempDir()
	return runConfig{base: dir, outDir: dir, sc: testScale, ops: ops, setups: 1}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because that is what the acceptance driver compares bounds to.
func TestQuantileMatchesExclusiveMethod(t *testing.T) {
	cases := []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		sp := spreadOf(c.vals)
		if !almost(sp.Q1, c.q1) || !almost(sp.Median, c.q2) || !almost(sp.Q3, c.q3) {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.vals, sp.Q1, sp.Median, sp.Q3, c.q1, c.q2, c.q3)
		}
	}
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got := quantile(lat, 0.95); !almost(got, 950.95) {
		t.Errorf("p95 of 1..1000 = %v, want 950.95", got)
	}
	if sp := spreadOf([]float64{10, 10, 10, 12}); !almost(sp.IQROverMedian, 0.15) {
		t.Errorf("IQR over median = %v, want 0.15", sp.IQROverMedian)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60}, // overlaps a by 10
		{ID: 3, Parent: 1, Name: "leaf", Start: 15, End: 20},
		{ID: 4, Parent: 0, Name: "b", Start: 90, End: 120}, // clipped to its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"op": 40, "a": 25, "b": 60, "leaf": 5}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		m    metricSpec
		b    []float64
		want string
	}{
		{lower, shifted(1.05), verdictSame},
		{lower, shifted(1.2), verdictWorse},
		{lower, shifted(0.8), verdictBetter},
		{higher, shifted(0.8), verdictWorse},
		{higher, shifted(1.2), verdictBetter},
		{lower, []float64{60, 100, 140, 100, 180}, verdictUnresolved},
	}
	for _, c := range cases {
		if _, _, _, got := judge(c.m, base, c.b); got != c.want {
			t.Errorf("%s %v: verdict %s, want %s", c.m.Name, c.b, got, c.want)
		}
	}
}

// Every workload runs both kinds of run at smoke scale: the oracle
// passes, the metric names are exactly those of BENCHMARK.json, and
// the traced run leaves a span file.
func TestSmokeAllWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadDefs))
	}
	for _, w := range spec.Workloads {
		def, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		ops := 300
		if def.name == "score-query" {
			ops = 100
		}
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(testConfig(t, ops), def, defaultSeed, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed the oracle", def.name, traced, r.Failed, r.Attempted)
			}
			obj, err := spec.object(r)
			if err != nil {
				t.Error(err)
				continue
			}
			for name, v := range obj.Metrics {
				if v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %v %q", def.name, name, v.Value, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", def.name, name, v.Value)
				}
			}
			if extra := spec.unlisted(r); len(extra) > 0 {
				t.Errorf("%s traced=%v measured metrics BENCHMARK.json does not list: %v", def.name, traced, extra)
			}
			if traced {
				if _, err := os.Stat(r.TraceFile); err != nil {
					t.Errorf("%s: span file: %v", def.name, err)
				}
			}
		}
	}
}

// On the single-client workloads the same seed must give the same op
// stream and the same engine counts, so a change in a count is a
// change in the engine and not noise.
func TestSingleClientCountsRepeatExactly(t *testing.T) {
	for _, name := range []string{"score-query", "score-edit"} {
		def, _ := findWorkload(name)
		for _, traced := range []bool{false, true} {
			a, err := runWorkload(testConfig(t, 120), def, 42, traced)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(testConfig(t, 120), def, 42, traced)
			if err != nil {
				t.Fatal(err)
			}
			if a.StreamDigest != b.StreamDigest || a.Attempted != b.Attempted {
				t.Errorf("%s: op stream differs between two runs of one seed", name)
			}
			exact := []string{"wal_bytes_per_op"}
			if traced {
				exact = []string{"wal.bytes_per_op", "storage.rows_read_per_op", "storage.rows_written_per_op", "quel.rows_scanned_per_row_returned"}
			}
			for _, m := range exact {
				if a.Metrics[m] != b.Metrics[m] {
					t.Errorf("%s: %s = %v then %v on the same seed", name, m, a.Metrics[m], b.Metrics[m])
				}
			}
			if traced {
				continue
			}
			c, err := runWorkload(testConfig(t, 120), def, 43, traced)
			if err != nil {
				t.Fatal(err)
			}
			if c.StreamDigest == a.StreamDigest {
				t.Errorf("%s: seeds 42 and 43 generated the same op stream", name)
			}
		}
	}
}
