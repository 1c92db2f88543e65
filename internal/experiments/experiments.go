// Package experiments is the one definition of every measurement the
// reproduction makes of the paper: the quantified claims (DESIGN.md's
// Q1–Q7), the figure-derived operations (F-rows) and the design-choice
// ablations (A-rows).  Each measurement is a case in one table, read by
// three consumers:
//
//   - go test runs the table at Quick sizes and checks the shape each
//     claim predicts (experiments_test.go);
//   - go test -bench Paper/<id> times the cases at Full sizes;
//   - cmd/mdmbench prints the table (the rows of EXPERIMENTS.md).
//
// A timed case builds its own fixture the first time it runs, so timing
// one case builds only that case's data.  Ratio and exact rows are
// derived from measured rows or computed, never timed.
package experiments

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mdm"
)

// Row is one measured result.
type Row struct {
	ID     string  // experiment id (Q1, F14, A1, ...)
	Name   string  // what is measured
	Config string  // workload parameters
	Value  float64 // the measurement
	Unit   string
}

// caseDef is one measurement of the table.  Exactly one of Bench, Exact
// and Ratio is set.
type caseDef struct {
	ID, Name, Config, Unit string
	// Bench times one operation per b.N iteration; the row's value is
	// ns per iteration.
	Bench func(b *testing.B)
	// Exact computes the row's value directly (paper arithmetic, codec
	// ratios).
	Exact func() float64
	// Ratio names two earlier cases by key; the row's value is the first
	// one's value divided by the second's.
	Ratio [2]string
}

// key identifies a case within the table.
func (c caseDef) key() string { return c.ID + "/" + c.Name + "/" + c.Config }

// ratio derives a case dividing num's value by den's.
func ratio(name string, num, den caseDef) caseDef {
	return caseDef{ID: num.ID, Name: name, Config: num.Config, Unit: "x", Ratio: [2]string{num.key(), den.key()}}
}

// Sizes scales workloads: Quick for tests, Full for the recorded runs.
type Sizes struct {
	ScanRows     int
	OrderedNotes int
	MiddleChord  int
	SyncMeasures int
	Clients      int
	ClientOps    int
	SoundSeconds float64
	// Window is how long RunAll times each timed case (testing's
	// -test.benchtime); zero keeps testing's default of one second.
	Window time.Duration
}

// Quick returns test-sized workloads.  The shape checks compare rows
// that differ by integer factors, so a 50 ms window per row decides
// them — long enough that one preemption on a busy machine cannot flip
// a sub-microsecond row.
func Quick() Sizes {
	return Sizes{ScanRows: 2000, OrderedNotes: 500, MiddleChord: 300,
		SyncMeasures: 8, Clients: 4, ClientOps: 25, SoundSeconds: 0.25,
		Window: 50 * time.Millisecond}
}

// Full returns the workload sizes used for EXPERIMENTS.md.
func Full() Sizes {
	return Sizes{ScanRows: 100_000, OrderedNotes: 10_000, MiddleChord: 2_000,
		SyncMeasures: 64, Clients: 4, ClientOps: 400, SoundSeconds: 5}
}

// cases returns the table at the given sizes, in report order.
func cases(sz Sizes) []caseDef {
	// Q3 and A1 ask their questions of the same chord.
	ordered := sync.OnceValue(func() *chord { return newChord(sz.OrderedNotes) })
	var cs []caseDef
	for _, part := range [][]caseDef{
		q1SortedSelection(sz), q2MiddleInsert(sz), q3OrderingOperators(sz.OrderedNotes, ordered),
		q4Sound(sz), q5CatalogIndirection(), q6SharedMDM(sz), q7TxnOverhead(),
		f2ThematicLookup(), f3PianoRoll(), f4Darms(), f5QuelJoin(sz),
		f6OrdinalFanout(sz), f8RecursiveTraversal(), f9CatalogBootstrap(),
		f12DynamicInheritance(), f13Extrapolation(), f14SyncAlignment(sz),
		f15GroupAggregate(), a1BeforeRankVsWalk(sz.OrderedNotes, ordered), a2SargPushdown(),
	} {
		cs = append(cs, part...)
	}
	return cs
}

// RunAll measures every case at the given sizes.
func RunAll(sz Sizes) []Row {
	if sz.Window > 0 {
		testing.Init() // registers -test.benchtime outside a test binary
		bt := flag.Lookup("test.benchtime")
		defer flag.Set(bt.Name, bt.Value.String())
		if err := flag.Set(bt.Name, sz.Window.String()); err != nil {
			panic(err)
		}
	}
	val := map[string]float64{}
	var rows []Row
	cs := cases(sz)
	for i, c := range cs {
		cs[i] = caseDef{} // a fixture is garbage once its last case has run
		var v float64
		switch {
		case c.Bench != nil:
			r := testing.Benchmark(c.Bench)
			if r.N == 0 {
				panic("experiments: case " + c.key() + " failed")
			}
			v = float64(r.T.Nanoseconds()) / float64(r.N)
		case c.Exact != nil:
			v = c.Exact()
		default:
			v = val[c.Ratio[0]] / val[c.Ratio[1]]
		}
		val[c.key()] = v
		rows = append(rows, Row{c.ID, c.Name, c.Config, v, c.Unit})
	}
	return rows
}

// Render formats rows as an aligned table.
func Render(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-50s %-22s %14s %s\n", "id", "measurement", "configuration", "value", "unit")
	b.WriteString(strings.Repeat("-", 106) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %-50s %-22s %14.1f %s\n", r.ID, r.Name, r.Config, r.Value, r.Unit)
	}
	return b.String()
}

// loop times fn once per iteration over the fixture fix() builds on the
// case's first run.
func loop[T any](fix func() T, fn func(f T, i int) error) func(b *testing.B) {
	return func(b *testing.B) {
		f := fix()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fn(f, i); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// openMDM opens an in-memory manager: the fixture of every case that
// runs through the engine.  skipCMN leaves out the music and
// bibliographic schemas for cases that define their own.
func openMDM(skipCMN bool) *mdm.MDM {
	m, err := mdm.Open(mdm.Options{SkipCMN: skipCMN})
	check(err)
	return m
}

// check panics on a fixture error: fixtures are deterministic, so a
// failure is a bug, not a measurement.
func check(err error) {
	if err != nil {
		panic(err)
	}
}
