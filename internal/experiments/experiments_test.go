package experiments

import (
	"flag"
	"strings"
	"testing"
)

// TestRunAllExtendedQuick runs the whole experiment suite at test sizes
// and validates the shape-level expectations the reproduction records in
// EXPERIMENTS.md.
func TestRunAllExtendedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	// The assertions below are orderings between rows that differ by
	// integer factors, so a 50 ms window per row decides them — long
	// enough that one preemption on a busy machine cannot flip a
	// sub-microsecond row.  testing.Benchmark's default second per row
	// (what mdmbench records for EXPERIMENTS.md) would spend minutes here.
	bt := flag.Lookup("test.benchtime")
	defer flag.Set(bt.Name, bt.Value.String())
	if err := flag.Set(bt.Name, "50ms"); err != nil {
		t.Fatal(err)
	}
	rows := RunAllExtended(Quick())
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.ID+"/"+r.Name+"/"+r.Config] = r.Value
	}
	get := func(prefix string) float64 {
		for k, v := range byName {
			if strings.HasPrefix(k, prefix) {
				return v
			}
		}
		t.Fatalf("no row with prefix %q", prefix)
		return 0
	}
	// Q1: matching sort key beats heap scan; mismatched key does not.
	if get("Q1/range selection via matching") >= get("Q1/range selection via heap") {
		t.Error("Q1: index should beat heap scan")
	}
	if get("Q1/selection with mismatched") < get("Q1/range selection via heap")/2 {
		t.Error("Q1: mismatched key should not approach index speed")
	}
	// Q2: gap ranks beat renumbering.
	if get("Q2/middle insert, hierarchical") >= get("Q2/middle insert, relational") {
		t.Error("Q2: hierarchical ordering should beat renumbering")
	}
	// Q3: before operator beats relational scan.
	if get("Q3/before operator") >= get("Q3/before equivalent") {
		t.Error("Q3: before operator should beat relational scan")
	}
	// Q4: exact paper arithmetic.
	if get("Q4/10 min at 48kHz") != 57_600_000 {
		t.Error("Q4: storage arithmetic mismatch")
	}
	if v := get("Q4/perceptual codec (mu-law) compression"); v < 1.9 || v > 2.1 {
		t.Errorf("Q4: mu-law ratio %g", v)
	}
	// Q5: catalog indirection costs more than hard-coding but less than 100x.
	if get("Q5/stem draw via catalog") <= get("Q5/stem draw hard-coded") {
		t.Error("Q5: indirection should cost something")
	}
	// Q7: WAL adds cost; fsync adds much more.
	if get("Q7/txn insert, no WAL") >= get("Q7/txn insert, WAL + fsync") {
		t.Error("Q7: fsync should dominate")
	}
	// Rendering shape.
	out := Render(rows)
	if !strings.Contains(out, "Q1") || !strings.Contains(out, "ns/query") {
		t.Error("render")
	}
	if len(rows) < 25 {
		t.Errorf("experiment coverage: only %d rows", len(rows))
	}
}
