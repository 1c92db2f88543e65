package quel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ddl"
	"repro/internal/model"
	"repro/internal/value"
)

// diffFixture builds the differential test's database: two plain
// entity types (one indexed), and notes ordered under chords.  The data
// is a pure function of the fixed seed, so two fixtures are row-for-row
// (and surrogate-for-surrogate) identical.
func diffFixture(t *testing.T) *model.Database {
	t.Helper()
	db, _ := newSession(t)
	if _, err := ddl.Exec(db, `
define entity A (x = integer, y = integer, w = float)
define entity B (x = integer, z = integer)
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer, chord = integer)
define ordering note_in_chord (NOTE) under CHORD
define index on A (x)
define index on NOTE (pitch)
define index on NOTE (name)
`); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		if _, err := db.NewEntity("A", model.Attrs{
			"x": value.Int(rng.Int63n(10)),
			"y": value.Int(rng.Int63n(5)),
			"w": value.Float(float64(rng.Int63n(8))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := db.NewEntity("B", model.Attrs{
			"x": value.Int(rng.Int63n(10)),
			"z": value.Int(rng.Int63n(6)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	chords := make([]value.Ref, 4)
	for i := range chords {
		c, err := db.NewEntity("CHORD", model.Attrs{"name": value.Int(int64(i + 1))})
		if err != nil {
			t.Fatal(err)
		}
		chords[i] = c
	}
	for i := 0; i < 40; i++ {
		ci := rng.Intn(len(chords))
		n, err := db.NewEntity("NOTE", model.Attrs{
			"name":  value.Int(int64(i)),
			"pitch": value.Int(48 + rng.Int63n(32)),
			"chord": value.Int(int64(ci + 1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.InsertChild("note_in_chord", chords[ci], n, model.Last()); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// diffState dumps every entity type and the ordering's membership
// through a fresh planner session, as one canonical string.
func diffState(t *testing.T, db *model.Database) string {
	t.Helper()
	s := NewSession(db)
	var b strings.Builder
	for _, q := range []string{
		`retrieve (A.x, A.y, A.w)`,
		`retrieve (B.x, B.z)`,
		`retrieve (NOTE.name, NOTE.pitch, NOTE.chord)`,
		`retrieve (NOTE.name, CHORD.name) where NOTE under CHORD in note_in_chord`,
	} {
		b.WriteString(q + "\n" + canonRows(mustExec(t, s, q)) + "\n")
	}
	return b.String()
}

// TestPlannerNaiveDifferential executes randomized statements through
// both executors — the cost-based planner and the naive nested-loop
// oracle — over two identical databases and asserts identical result
// multisets and, after every replace or delete, identical database
// contents.  The statement pool exercises every planner decision:
// index range scans (bounded and unbounded sargs, matched and
// mismatched literal kinds), hash equi-joins (attribute/attribute,
// identity, multi-conjunct), ordering probes (before/after/under, both
// orientations), join reordering, sort elision, unique, empty-scan
// short-circuits, and writes qualified by each of those access paths
// (including a replace that moves rows within the index it scans).
func TestPlannerNaiveDifferential(t *testing.T) {
	plannedDB, naiveDB := diffFixture(t), diffFixture(t)
	planned, naive := NewSession(plannedDB), NewSession(naiveDB)
	naive.naive = true
	if got, want := diffState(t, plannedDB), diffState(t, naiveDB); got != want {
		t.Fatalf("fixtures differ before any statement:\n%s\nvs\n%s", got, want)
	}

	rng := rand.New(rand.NewSource(43))
	lit := func() int64 { return rng.Int63n(12) }
	pitch := func() int64 { return 48 + rng.Int63n(32) }
	op := func() string {
		return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
	}
	templates := []func() string{
		// Single-variable sargs on the indexed attribute, including
		// ranges and a float literal on an integer field (kind
		// mismatch: must stay a residual filter, never a bad bound).
		func() string { return fmt.Sprintf(`retrieve (a.x, a.y) where a.x %s %d`, op(), lit()) },
		func() string {
			return fmt.Sprintf(`retrieve (a.x, a.y) where a.x >= %d and a.x < %d`, lit(), lit())
		},
		func() string { return fmt.Sprintf(`retrieve (a.x) where a.x = %d.0`, lit()) },
		func() string { return fmt.Sprintf(`retrieve (a.w) where a.w %s %d.0`, op(), lit()) },
		func() string {
			return fmt.Sprintf(`retrieve (n.name) where n.pitch >= %d and n.pitch <= %d`, pitch(), pitch())
		},
		// Contradictory bounds: empty index range, scan short-circuit.
		func() string { return `retrieve (n.name, c.name) where n.pitch > 99 and n.chord = c.name` },
		// Hash equi-joins, with and without extra sargs; or-disjuncts
		// must keep the conjunct out of the join keys.
		func() string { return `retrieve (a.x, b.z) where a.x = b.x` },
		func() string { return fmt.Sprintf(`retrieve (a.y, b.z) where a.x = b.x and b.z %s %d`, op(), lit()) },
		func() string { return fmt.Sprintf(`retrieve (a.x) where a.x = b.x and a.y = b.z and b.x < %d`, lit()) },
		func() string { return fmt.Sprintf(`retrieve (a.x, b.x) where a.x = b.x or a.y > %d`, lit()) },
		func() string {
			return fmt.Sprintf(`retrieve (n.name, c.name) where n.chord = c.name and c.name %s %d`, op(), 1+rng.Int63n(4))
		},
		// Identity join through two variables over the same type.
		func() string { return fmt.Sprintf(`retrieve (n1.name) where n1 = n2 and n2.name = %d`, rng.Int63n(40)) },
		// Ordering probes in every orientation.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = %d`, rng.Int63n(40))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = %d`, rng.Int63n(40))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n2.name) where n1 before n2 in note_in_chord and n1.name = %d`, rng.Int63n(40))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n.name, c.name) where n under c in note_in_chord and c.name = %d`, 1+rng.Int63n(4))
		},
		func() string {
			return fmt.Sprintf(`retrieve (c.name) where n under c in note_in_chord and n.name = %d`, rng.Int63n(40))
		},
		func() string { return `retrieve unique (c.name) where n under c in note_in_chord and n.pitch > 60` },
		// Three-way: ordering probe plus hash join.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 before n2 in note_in_chord and n1.pitch = n2.pitch and c.name = n1.chord and c.name %s %d`, op(), 1+rng.Int63n(4))
		},
		// Sort elision (asc and desc) and sorted joins.
		func() string { return fmt.Sprintf(`retrieve (p = n.pitch) where n.pitch > %d sort by p`, pitch()) },
		func() string {
			return fmt.Sprintf(`retrieve (p = n.pitch, nm = n.name) where n.pitch < %d sort by p desc`, pitch())
		},
		func() string { return `retrieve unique (x = a.x) sort by x desc` },
		func() string { return `retrieve (a.y, b.z) where a.x = b.x sort by y, z desc` },
		// Writes.  Assigned values never depend on which of several
		// qualifying combinations is visited, so the post-state is
		// executor-independent.
		func() string { return fmt.Sprintf(`replace a (y = a.y + 1) where a.x %s %d`, op(), lit()) },
		func() string {
			return fmt.Sprintf(`replace a (x = %d) where a.x >= %d and a.x < %d`, lit(), lit(), lit())
		},
		func() string {
			return fmt.Sprintf(`replace b (z = %d) where a.x = b.x and a.y = %d`, lit(), rng.Int63n(5))
		},
		func() string {
			return fmt.Sprintf(`replace n1 (pitch = %d) where n1 before n2 in note_in_chord and n2.name = %d`, pitch(), rng.Int63n(40))
		},
		func() string {
			return fmt.Sprintf(`replace n (pitch = n.pitch + 1) where n under c in note_in_chord and c.name = %d and n.pitch >= %d`, 1+rng.Int63n(4), pitch())
		},
		func() string { return fmt.Sprintf(`delete a where a.x = %d and a.y %s %d`, lit(), op(), rng.Int63n(5)) },
		func() string {
			return fmt.Sprintf(`delete b where a.x = b.x and a.y = %d and b.z = %d`, rng.Int63n(5), rng.Int63n(6))
		},
	}

	decls := `range of a is A
range of b is B
range of n, n1, n2 is NOTE
range of c is CHORD`
	mustExec(t, planned, decls)
	mustExec(t, naive, decls)

	var writes, affected int
	for i := 0; i < 250; i++ {
		q := templates[i%len(templates)]()
		pres, perr := planned.Exec(q)
		nres, nerr := naive.Exec(q)
		if (perr == nil) != (nerr == nil) {
			t.Fatalf("query %q: planner err = %v, naive err = %v", q, perr, nerr)
		}
		if perr != nil {
			t.Fatalf("query %q: %v", q, perr)
		}
		if got, want := strings.Join(pres.Columns, ","), strings.Join(nres.Columns, ","); got != want {
			t.Fatalf("query %q: columns %q vs %q", q, got, want)
		}
		if got, want := canonRows(pres), canonRows(nres); got != want {
			t.Fatalf("query %q: result mismatch\nplanner:\n%s\nnaive:\n%s", q, got, want)
		}
		if strings.HasPrefix(q, "retrieve") {
			continue
		}
		writes++
		if pres.Affected != nres.Affected {
			t.Fatalf("statement %q: planner affected %d, naive %d", q, pres.Affected, nres.Affected)
		}
		affected += pres.Affected
		if got, want := diffState(t, plannedDB), diffState(t, naiveDB); got != want {
			t.Fatalf("statement %q: post-state mismatch\nplanner:\n%s\nnaive:\n%s", q, got, want)
		}
	}
	if writes == 0 || affected == 0 {
		t.Fatalf("write statements did no work (%d statements, %d rows affected): the differential is vacuous", writes, affected)
	}
}

// canonRows renders a result's rows as a sorted multiset: both executors
// must emit the same rows, but tie order within a sort (and row order
// without one) is executor-dependent.
func canonRows(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.Quoted()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestPlannerSortedOrderAgreement pins down that with a sort clause the
// planner's row order (including an elided sort) matches the naive
// executor's stable sort exactly when the sort key is unique per row.
func TestPlannerSortedOrderAgreement(t *testing.T) {
	db, planned := newSession(t)
	naive := NewSession(db)
	naive.naive = true
	if _, err := ddl.Exec(db, `
define entity NOTE (name = integer, pitch = integer)
define index on NOTE (name)
`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		if _, err := db.NewEntity("NOTE", model.Attrs{
			"name": value.Int(int64(i)), "pitch": value.Int(rng.Int63n(100)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`retrieve (nm = NOTE.name, p = NOTE.pitch) sort by nm`,
		`retrieve (nm = NOTE.name, p = NOTE.pitch) sort by nm desc`,
		`retrieve (nm = NOTE.name) where NOTE.name >= 5 and NOTE.name < 15 sort by nm desc`,
	} {
		pres := mustExec(t, planned, q)
		nres := mustExec(t, naive, q)
		if len(pres.Rows) != len(nres.Rows) {
			t.Fatalf("query %q: %d vs %d rows", q, len(pres.Rows), len(nres.Rows))
		}
		for i := range pres.Rows {
			for j := range pres.Rows[i] {
				if value.Compare(pres.Rows[i][j], nres.Rows[i][j]) != 0 {
					t.Fatalf("query %q: row %d differs: %v vs %v", q, i, pres.Rows[i], nres.Rows[i])
				}
			}
		}
	}
}
