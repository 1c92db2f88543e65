package quel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ddl"
	"repro/internal/model"
	"repro/internal/value"
)

// buildScores populates SCORE/NOTE with nScores scores of notesPer notes
// each, attached through the note_in_score ordering, with a secondary
// index on pitch.  Pitches cycle deterministically so goldens stay
// stable.
func buildScores(t testing.TB, db *model.Database, nScores, notesPer int) {
	t.Helper()
	if _, err := ddl.Exec(db, `
define entity SCORE (name = integer)
define entity NOTE (name = integer, pitch = integer, score = integer)
define ordering note_in_score (NOTE) under SCORE
define index on NOTE (pitch)
define index on NOTE (name)
`); err != nil {
		t.Fatal(err)
	}
	id := 0
	for si := 0; si < nScores; si++ {
		sc, err := db.NewEntity("SCORE", model.Attrs{"name": value.Int(int64(si))})
		if err != nil {
			t.Fatal(err)
		}
		for ni := 0; ni < notesPer; ni++ {
			n, err := db.NewEntity("NOTE", model.Attrs{
				"name":  value.Int(int64(id)),
				"pitch": value.Int(int64(36 + id*7%48)),
				"score": value.Int(int64(si)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.InsertChild("note_in_score", sc, n, model.Last()); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
}

// parSession returns a session forced onto the parallel path: small
// fixtures still fan out because the row threshold drops to 1.
func parSession(db *model.Database, workers int) *Session {
	s := NewSession(db)
	s.SetParallel(workers)
	s.SetParallelMinRows(1)
	return s
}

// TestParallelMatchesSerialExactly pins the core merge invariant: the
// parallel executor must reproduce the serial executor's row order
// byte-for-byte (morsel-ordered concatenation), not merely the same
// multiset — sort-free retrieves included.
func TestParallelMatchesSerialExactly(t *testing.T) {
	db, serial := newSession(t)
	buildScores(t, db, 8, 25)
	par := parSession(db, 4)

	decls := "range of n, n1, n2 is NOTE\nrange of s is SCORE"
	mustExec(t, serial, decls)
	mustExec(t, par, decls)

	for _, q := range []string{
		`retrieve (n.name, n.pitch)`,
		`retrieve (n.name) where n.pitch >= 40 and n.pitch < 70`,
		`retrieve (n.name, s.name) where n under s in note_in_score`,
		`retrieve (n.name, s.name) where n under s in note_in_score and s.name >= 3`,
		`retrieve (n1.name, n2.name) where n1.pitch = n2.pitch and n1.name < 30`,
		`retrieve unique (p = n.pitch) where n under s in note_in_score and s.name < 4 sort by p`,
		`retrieve (p = n.pitch) where n.pitch > 40 sort by p`,
		`retrieve (n.name, n.pitch) sort by pitch, name desc`,
	} {
		sres := mustExec(t, serial, q)
		pres := mustExec(t, par, q)
		if len(sres.Rows) != len(pres.Rows) {
			t.Fatalf("query %q: serial %d rows, parallel %d rows", q, len(sres.Rows), len(pres.Rows))
		}
		for i := range sres.Rows {
			for j := range sres.Rows[i] {
				if value.Compare(sres.Rows[i][j], pres.Rows[i][j]) != 0 {
					t.Fatalf("query %q: row %d differs: serial %v, parallel %v",
						q, i, sres.Rows[i], pres.Rows[i])
				}
			}
		}
	}
	if got := db.Store().Obs().Counter("quel.par.queries").Value(); got == 0 {
		t.Fatal("quel.par.queries never incremented: parallel path did not engage")
	}
	if got := db.Store().Obs().Counter("quel.par.morsels").Value(); got == 0 {
		t.Fatal("quel.par.morsels never incremented")
	}
}

// TestParallelSerialNaiveDifferential is the three-way differential over
// randomized multi-score retrieves: the parallel executor vs. the serial
// planner vs. the naive nested-loop path must agree on every result
// multiset, and parallel must match serial's row order exactly.  Run
// with -race in CI, this is the memory-safety gate for the whole
// fan-out/merge machinery.
func TestParallelSerialNaiveDifferential(t *testing.T) {
	db, serial := newSession(t)
	buildScores(t, db, 10, 20)
	par := parSession(db, 4)
	naive := NewSession(db)
	naive.naive = true

	decls := "range of n, n1, n2 is NOTE\nrange of s, s1, s2 is SCORE"
	for _, sess := range []*Session{serial, par, naive} {
		mustExec(t, sess, decls)
	}

	rng := rand.New(rand.NewSource(1987))
	op := func() string { return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)] }
	pitch := func() int64 { return 36 + rng.Int63n(48) }
	score := func() int64 { return rng.Int63n(10) }
	name := func() int64 { return rng.Int63n(200) }
	templates := []func() string{
		// Single-variable scans: heap, index range, empty range.
		func() string { return fmt.Sprintf(`retrieve (n.name, n.pitch) where n.pitch %s %d`, op(), pitch()) },
		func() string {
			return fmt.Sprintf(`retrieve (n.name) where n.pitch >= %d and n.pitch < %d`, pitch(), pitch())
		},
		func() string { return `retrieve (n.name) where n.pitch > 999` },
		// Multi-score ordering probes, both orientations.
		func() string {
			return fmt.Sprintf(`retrieve (n.name, s.name) where n under s in note_in_score and s.name %s %d`, op(), score())
		},
		func() string {
			return fmt.Sprintf(`retrieve (s.name) where n under s in note_in_score and n.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 before n2 in note_in_score and n2.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 after n2 in note_in_score and n2.name %s %d`, op(), name())
		},
		// Hash joins across scores, with and without sargs.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1.pitch = n2.pitch and n1.name < %d and n2.name >= %d`, name(), name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n.score, s.name) where n.score = s.name and s.name < %d`, score())
		},
		func() string { return fmt.Sprintf(`retrieve (n1.name) where n1 = n2 and n2.name = %d`, name()) },
		// Three-way: hash join plus ordering probe.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 under s in note_in_score and n1.pitch = n2.pitch and s.name %s %d`, op(), score())
		},
		// Or-disjunct keeps conjuncts out of the join keys.
		func() string {
			return fmt.Sprintf(`retrieve (n.name, s.name) where n.score = s.name or s.name > %d`, score())
		},
		// Unique and sorted variants.
		func() string {
			return fmt.Sprintf(`retrieve unique (p = n.pitch) where n under s in note_in_score and s.name <= %d sort by p`, score())
		},
		func() string {
			return fmt.Sprintf(`retrieve (p = n.pitch, nm = n.name) where n.pitch < %d sort by p desc`, pitch())
		},
		func() string { return `retrieve unique (sc = n.score) sort by sc desc` },
	}

	for i := 0; i < 250; i++ {
		q := templates[i%len(templates)]()
		sres, serr := serial.Exec(q)
		pres, perr := par.Exec(q)
		nres, nerr := naive.Exec(q)
		if (serr == nil) != (perr == nil) || (serr == nil) != (nerr == nil) {
			t.Fatalf("query %q: serial err = %v, parallel err = %v, naive err = %v", q, serr, perr, nerr)
		}
		if serr != nil {
			t.Fatalf("query %q: %v", q, serr)
		}
		// Parallel must reproduce serial exactly, including row order.
		if len(sres.Rows) != len(pres.Rows) {
			t.Fatalf("query %q: serial %d rows, parallel %d rows", q, len(sres.Rows), len(pres.Rows))
		}
		for ri := range sres.Rows {
			for ci := range sres.Rows[ri] {
				if value.Compare(sres.Rows[ri][ci], pres.Rows[ri][ci]) != 0 {
					t.Fatalf("query %q: row %d differs: serial %v, parallel %v",
						q, ri, sres.Rows[ri], pres.Rows[ri])
				}
			}
		}
		// Naive agrees as a multiset (its row order is its own).
		if got, want := canonRows(pres), canonRows(nres); got != want {
			t.Fatalf("query %q: result mismatch\nparallel:\n%s\nnaive:\n%s", q, got, want)
		}
	}
}

// TestParallelExplain is the golden test for parallel plan nodes:
// partition count, worker fan-out, and est vs. actual rows per morsel
// all render (satellite: explain retrieve renders parallel plan nodes).
func TestParallelExplain(t *testing.T) {
	db, _ := newSession(t)
	buildScores(t, db, 2, 4)
	s := parSession(db, 2)
	mustExec(t, s, "range of n is NOTE\nrange of s is SCORE")

	got := planLines(t, s, `explain retrieve (n.name, s.name) where n under s in note_in_score`)
	want := []string{
		`Retrieve (rows=8) (time=X)`,
		`  Filter: (n under s in note_in_score) (in=8, out=8)`,
		`    OrderOps: 8 evals (time=X)`,
		`    Parallel (workers=2, morsels=2)`,
		`      morsel 0: est=1 rows=4`,
		`      morsel 1: est=1 rows=4`,
		`      OrderFetch (n under s in note_in_score) (est=8, probes=2, fetched=8, kept=8)`,
		`        Scan s on SCORE (est=2, scanned=2, kept=2) (time=X)`,
		`        Fetch n on NOTE using by_ref`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// An index range scan over the threshold splits into sub-ranges.
	got = planLines(t, s, `explain retrieve (n.name) where n.pitch >= 36`)
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "IndexScan n on NOTE") {
		t.Fatalf("no index scan in plan:\n%s", joined)
	}
	if !strings.Contains(joined, "Parallel: ") || !strings.Contains(joined, "sub-ranges") {
		t.Fatalf("no parallel sub-range line in plan:\n%s", joined)
	}
	if !strings.Contains(joined, "scanned=8, kept=8") {
		t.Fatalf("parallel index scan lost rows:\n%s", joined)
	}
}

// TestParallelWriteStatementsStaySerial pins the gate: writers hold
// two-phase locks, not snapshots, so replace/delete never fan out even
// on a parallel session.
func TestParallelWriteStatementsStaySerial(t *testing.T) {
	db, _ := newSession(t)
	buildScores(t, db, 2, 10)
	s := parSession(db, 4)
	mustExec(t, s, "range of n is NOTE")
	before := db.Store().Obs().Counter("quel.par.queries").Value()
	if res := mustExec(t, s, `replace n (pitch = n.pitch + 1) where n.pitch < 50`); res.Affected == 0 {
		t.Fatal("replace affected nothing")
	}
	if res := mustExec(t, s, `delete n where n.name >= 18`); res.Affected != 2 {
		t.Fatalf("delete affected %d, want 2", res.Affected)
	}
	if after := db.Store().Obs().Counter("quel.par.queries").Value(); after != before {
		t.Fatalf("write statements took the parallel path (%d -> %d)", before, after)
	}
}
