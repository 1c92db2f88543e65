package quel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/value"
)

// diffFixture builds the differential test's database: two plain
// entity types (one indexed), notes ordered under chords, writers with a
// unique index on their number, a many-to-many wrote table indexed on
// its writer, and a relationship between A and NOTE.  A few A, B and
// NOTE rows have NULL join attributes (NULL = NULL holds in QUEL).  The
// data is a pure function of the fixed seed, so two fixtures are
// row-for-row (and surrogate-for-surrogate) identical.
func diffFixture(t testing.TB) *model.Database {
	t.Helper()
	db, _ := newSession(t)
	if _, err := NewSession(db).Exec(`
define entity A (x = integer, y = integer, w = float)
define entity B (x = integer, z = integer)
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer, chord = integer)
define entity W (num = integer, name = integer)
define entity WR (writer = integer, work = integer, role = integer)
define relationship PLAYS (player = A, part = NOTE)
define ordering note_in_chord (NOTE) under CHORD
define index on A (x)
define index on NOTE (pitch)
define index on NOTE (name)
define index on WR (writer)
`); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineIndex("W", storage.IndexSpec{Name: "ix_w_num", Columns: []string{"num"}, Unique: true}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	newEntity := func(typ string, attrs model.Attrs) value.Ref {
		ref, err := db.NewEntity(typ, attrs)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	as := make([]value.Ref, 30)
	for i := range as {
		as[i] = newEntity("A", model.Attrs{
			"x": value.Int(rng.Int63n(10)),
			"y": value.Int(rng.Int63n(5)),
			"w": value.Float(float64(rng.Int63n(8))),
		})
	}
	for i := 0; i < 25; i++ {
		newEntity("B", model.Attrs{"x": value.Int(rng.Int63n(10)), "z": value.Int(rng.Int63n(6))})
	}
	chords := make([]value.Ref, 4)
	for i := range chords {
		chords[i] = newEntity("CHORD", model.Attrs{"name": value.Int(int64(i + 1))})
	}
	notes := make([]value.Ref, 40)
	for i := range notes {
		ci := rng.Intn(len(chords))
		notes[i] = newEntity("NOTE", model.Attrs{
			"name":  value.Int(int64(i)),
			"pitch": value.Int(48 + rng.Int63n(32)),
			"chord": value.Int(int64(ci + 1)),
		})
		if err := db.InsertChild("note_in_chord", chords[ci], notes[i], model.Last()); err != nil {
			t.Fatal(err)
		}
	}
	// Writers 1..8; wrote rows name writer 9 and works 40..44, which
	// match nothing.
	for i := 1; i <= 8; i++ {
		newEntity("W", model.Attrs{"num": value.Int(int64(i)), "name": value.Int(rng.Int63n(4))})
	}
	for i := 0; i < 40; i++ {
		newEntity("WR", model.Attrs{
			"writer": value.Int(1 + rng.Int63n(9)),
			"work":   value.Int(rng.Int63n(45)),
			"role":   value.Int(rng.Int63n(3)),
		})
	}
	for i := 0; i < 30; i++ {
		roles := map[string]value.Ref{"player": as[rng.Intn(len(as))], "part": notes[rng.Intn(len(notes))]}
		if err := db.Relate("PLAYS", roles, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		newEntity("A", model.Attrs{"x": value.Null, "y": value.Int(int64(i)), "w": value.Null})
		newEntity("B", model.Attrs{"x": value.Null, "z": value.Int(int64(i))})
	}
	for i := 40; i < 42; i++ {
		newEntity("NOTE", model.Attrs{"name": value.Int(int64(i)), "pitch": value.Int(60), "chord": value.Null})
	}
	return db
}

// diffState dumps every entity type, the relationship and the
// ordering's membership through a fresh planner session, as one
// canonical string.
func diffState(t testing.TB, db *model.Database) string {
	t.Helper()
	s := NewSession(db)
	var b strings.Builder
	for _, q := range []string{
		`retrieve (A.x, A.y, A.w)`,
		`retrieve (B.x, B.z)`,
		`retrieve (NOTE.name, NOTE.pitch, NOTE.chord)`,
		`retrieve (W.num, W.name)`,
		`retrieve (WR.writer, WR.work, WR.role)`,
		`retrieve (PLAYS.player, PLAYS.part)`,
		`retrieve (NOTE.name, CHORD.name) where NOTE under CHORD in note_in_chord`,
	} {
		b.WriteString(q + "\n" + canonRows(mustExec(t, s, q)) + "\n")
	}
	return b.String()
}

// diffDecls declares the range variables the differential statements use.
const diffDecls = `range of a is A
range of b is B
range of n, n1, n2 is NOTE
range of c is CHORD
range of w is W
range of r is WR`

// diffLits is where the differential statements draw their literals: a
// seeded *rand.Rand, or the fuzzer's bytes.
type diffLits interface {
	Int63n(n int64) int64
	Intn(n int) int
}

// diffTemplates is the differential statement pool.  It exercises every
// planner decision: index range scans (bounded and unbounded sargs,
// matched and mismatched literal kinds), hash equi-joins
// (attribute/attribute, multi-conjunct), index fetches (non-unique and
// unique indexes, identity, relationship roles, a three-step chain),
// ordering fetches (before/after/under, both orientations), join
// reordering, sort elision, unique, empty-scan short-circuits, and
// writes qualified by each of those access paths (including replaces
// that move rows within the index they scan or fetch through).
func diffTemplates(rng diffLits) []func() string {
	lit := func() int64 { return rng.Int63n(12) }
	pitch := func() int64 { return 48 + rng.Int63n(32) }
	op := func() string {
		return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
	}
	return []func() string{
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
		// Ordering fetches whose partner has no bounded range either (a
		// residual sarg on the unindexed chord attribute, or a CHORD
		// scan), in both orientations of before, after and under.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 before n2 in note_in_chord and n2.chord = %d`, 1+rng.Int63n(4))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 before n2 in note_in_chord and n1.chord = %d`, 1+rng.Int63n(4))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 after n2 in note_in_chord and n2.chord = %d`, 1+rng.Int63n(4))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 after n2 in note_in_chord and n1.chord = %d`, 1+rng.Int63n(4))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n.name, c.name) where n under c in note_in_chord and c.name %s %d`, op(), 1+rng.Int63n(4))
		},
		func() string {
			return fmt.Sprintf(`retrieve (n.name, c.name) where n under c in note_in_chord and n.chord = %d and n.pitch > 50`, 1+rng.Int63n(4))
		},
		// Both partners bounded: a nested loop the rank compare decides.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 before n2 in note_in_chord and n1.name < %d and n2.pitch >= %d`, rng.Int63n(40), pitch())
		},
		// A fetched variable with a residual sarg of its own (a float
		// literal bounds no integer index).
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = %d and n1.pitch >= %d.0`, rng.Int63n(40), pitch())
		},
		// Three-way: ordering fetch plus hash join.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 before n2 in note_in_chord and n1.pitch = n2.pitch and c.name = n1.chord and c.name %s %d`, op(), 1+rng.Int63n(4))
		},
		// Order conjunct and equi-joins around a streamed driver: a
		// heap driver hashing both other inputs, and a chord driver whose
		// fetched notes probe a hash table.
		func() string {
			return fmt.Sprintf(`retrieve (n.name, n2.name) where n.chord = c.name and n.pitch = n2.pitch and n2 under c in note_in_chord and n2.pitch >= %d.0`, pitch())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n.name, n2.name) where n2 under c in note_in_chord and c.name = %d and n.pitch = n2.pitch`, 1+rng.Int63n(4))
		},
		// Sort elision (asc and desc) and sorted joins.
		func() string { return fmt.Sprintf(`retrieve (p = n.pitch) where n.pitch > %d sort by p`, pitch()) },
		func() string {
			return fmt.Sprintf(`retrieve (p = n.pitch, nm = n.name) where n.pitch < %d sort by p desc`, pitch())
		},
		func() string { return `retrieve unique (x = a.x) sort by x desc` },
		func() string { return `retrieve (a.y, b.z) where a.x = b.x sort by y, z desc` },
		// Index fetches: through a non-unique and a unique index, a
		// three-step chain shaped like the catalogue's by-writer
		// statement, and relationship roles with the entity identities
		// they name.
		func() string {
			return fmt.Sprintf(`retrieve (w.name, r.role) where w.num = %d and r.writer = w.num`, 1+rng.Int63n(9))
		},
		func() string {
			return fmt.Sprintf(`retrieve (r.work, w.name) where r.role = %d and w.num = r.writer`, rng.Int63n(3))
		},
		func() string {
			return fmt.Sprintf(`retrieve (w.name, r.role, n.pitch) where w.num = %d and r.writer = w.num and n.name = r.work`, 1+rng.Int63n(9))
		},
		func() string {
			return fmt.Sprintf(`retrieve (r.writer, n.pitch) where n.pitch %s %d and n.name = r.work`, op(), pitch())
		},
		func() string {
			return fmt.Sprintf(`retrieve (a.y, n.name) where PLAYS.player is a and PLAYS.part is n and a.x = %d`, lit())
		},
		func() string {
			return fmt.Sprintf(`retrieve (a.x, n.pitch) where PLAYS.part is n and PLAYS.player is a and n.name = %d`, rng.Int63n(40))
		},
		// Constant sargs carried across equi-joins: a range on either
		// side, a chain a = b = n, an index fetch whose key repeats the
		// carried range, != (which NULL keys pass), and an int attribute
		// equated with a float one (never carried: Compare is not
		// transitive across int and float).
		func() string {
			return fmt.Sprintf(`retrieve (a.y, b.z) where a.x = b.x and a.x >= %d and a.x < %d`, lit(), lit())
		},
		func() string { return fmt.Sprintf(`retrieve (a.y, b.z) where a.x = b.x and b.x %s %d`, op(), lit()) },
		func() string {
			return fmt.Sprintf(`retrieve (n.name, c.name) where n.chord = c.name and n.chord >= %d and n.chord < %d`, 1+rng.Int63n(4), 1+rng.Int63n(5))
		},
		func() string {
			return fmt.Sprintf(`retrieve (a.y, b.z, n.name) where a.x = b.x and b.x = n.chord and a.x %s %d`, op(), 1+rng.Int63n(4))
		},
		func() string {
			return fmt.Sprintf(`retrieve (b.z, n.name) where n.chord = b.x and b.x = a.x and a.y = %d and n.pitch %s %d`, rng.Int63n(5), op(), pitch())
		},
		func() string {
			return fmt.Sprintf(`retrieve (w.name, r.role) where r.writer = w.num and w.num >= %d and w.num < %d`, 1+rng.Int63n(9), 1+rng.Int63n(10))
		},
		func() string { return fmt.Sprintf(`retrieve (a.y, b.z) where a.x = b.x and b.x != %d`, lit()) },
		func() string { return fmt.Sprintf(`retrieve (a.w, b.z) where a.w = b.x and b.x %s %d`, op(), lit()) },
		func() string {
			return fmt.Sprintf(`retrieve (a.w, b.x) where b.x = a.w and a.w >= %d.0 and a.w < %d`, lit(), lit())
		},
		func() string {
			return fmt.Sprintf(`replace b (z = %d) where a.x = b.x and a.x >= %d and a.x < %d`, rng.Int63n(6), lit(), lit())
		},
		func() string {
			return fmt.Sprintf(`delete n where n.chord = c.name and c.name > %d and n.pitch %s %d`, rng.Int63n(4), op(), pitch())
		},
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
		// Writes whose target is fetched under its chord on the locking
		// path.
		func() string {
			return fmt.Sprintf(`replace n (pitch = n.pitch - 1) where n under c in note_in_chord and c.name = %d`, 1+rng.Int63n(4))
		},
		func() string {
			return fmt.Sprintf(`delete n where n under c in note_in_chord and c.name = %d and n.pitch = %d.0`, 1+rng.Int63n(4), pitch())
		},
		// Writes qualified by an index fetch, run on the locking path;
		// the second moves rows within the index it fetches through.
		func() string {
			return fmt.Sprintf(`replace r (role = %d) where w.num = %d and r.writer = w.num`, rng.Int63n(3), 1+rng.Int63n(9))
		},
		func() string {
			return fmt.Sprintf(`replace r (writer = %d) where r.writer = w.num and w.name = %d`, 1+rng.Int63n(9), rng.Int63n(4))
		},
		func() string {
			return fmt.Sprintf(`replace w (name = %d) where w.num = r.writer and r.role = %d`, rng.Int63n(4), rng.Int63n(3))
		},
		func() string {
			return fmt.Sprintf(`replace a (y = %d) where a.x = b.x and b.z = %d`, rng.Int63n(5), rng.Int63n(6))
		},
		func() string {
			return fmt.Sprintf(`delete r where r.writer = w.num and w.name = %d and r.role = %d`, rng.Int63n(4), rng.Int63n(3))
		},
		func() string {
			return fmt.Sprintf(`delete n where PLAYS.part is n and PLAYS.player is a and a.x = %d and n.pitch = %d`, lit(), pitch())
		},
		func() string { return fmt.Sprintf(`delete a where a.x = %d and a.y %s %d`, lit(), op(), rng.Int63n(5)) },
		func() string {
			return fmt.Sprintf(`delete b where a.x = b.x and a.y = %d and b.z = %d`, rng.Int63n(5), rng.Int63n(6))
		},
	}
}

// diffExec runs q through both sessions and fails unless they agree on
// success, columns, the row multiset, the affected count and, after a
// write, the contents of both databases.  It returns the affected count.
func diffExec(t testing.TB, q string, planned, naive *Session) int {
	t.Helper()
	pres, perr := planned.Exec(q)
	nres, nerr := naive.Exec(q)
	if perr != nil || nerr != nil {
		t.Fatalf("query %q: planner err = %v, naive err = %v", q, perr, nerr)
	}
	diffResults(t, q, planned, naive, pres, nres)
	return pres.Affected
}

// diffResults compares two executions of q, and after a write the
// contents of both databases.
func diffResults(t testing.TB, q string, planned, naive *Session, pres, nres *Result) {
	t.Helper()
	if got, want := strings.Join(pres.Columns, ","), strings.Join(nres.Columns, ","); got != want {
		t.Fatalf("query %q: columns %q vs %q", q, got, want)
	}
	if got, want := canonRows(pres), canonRows(nres); got != want {
		t.Fatalf("query %q: result mismatch\nplanner:\n%s\nnaive:\n%s", q, got, want)
	}
	if pres.Affected != nres.Affected {
		t.Fatalf("statement %q: planner affected %d, naive %d", q, pres.Affected, nres.Affected)
	}
	if strings.HasPrefix(q, "retrieve") {
		return
	}
	if got, want := diffState(t, planned.db), diffState(t, naive.db); got != want {
		t.Fatalf("statement %q: post-state mismatch\nplanner:\n%s\nnaive:\n%s", q, got, want)
	}
}

// joinMethods names the join methods an explain plan shows.
func joinMethods(lines []string) []string {
	var out []string
	for _, l := range lines {
		for marker, m := range map[string]string{", streamed)": "scan", "HashJoin (": "hash",
			"NestedLoopJoin (est=": "loop", "OrderFetch (": "fetch", "IndexFetch (": "index"} {
			if strings.Contains(l, marker) && (m != "loop" || strings.Contains(l, "probes=")) {
				out = append(out, m)
			}
		}
	}
	return out
}

// TestPlannerNaiveDifferential executes randomized statements from
// diffTemplates through both executors — the cost-based planner and the
// naive nested-loop oracle — over two identical databases and asserts
// identical result multisets and, after every replace or delete,
// identical database contents.  Across the pool the planner must choose
// every join method at least once.
func TestPlannerNaiveDifferential(t *testing.T) {
	plannedDB, naiveDB := diffFixture(t), diffFixture(t)
	planned, naive := NewSession(plannedDB), NewSession(naiveDB)
	naive.naive = true
	if got, want := diffState(t, plannedDB), diffState(t, naiveDB); got != want {
		t.Fatalf("fixtures differ before any statement:\n%s\nvs\n%s", got, want)
	}
	mustExec(t, planned, diffDecls)
	mustExec(t, naive, diffDecls)

	templates := diffTemplates(rand.New(rand.NewSource(43)))
	methods := map[string]int{}
	// Every statement runs twice: a write's second run meets the rows its
	// first run changed.
	indexJoins := plannedDB.Store().Obs().Counter("quel.plan.join.index")
	var writes, affected, writeFetches int
	for i := 0; i < 600; i++ {
		q := templates[i%len(templates)]()
		for run := 0; run < 2; run++ {
			before := indexJoins.Value()
			n := diffExec(t, q, planned, naive)
			if !strings.HasPrefix(q, "retrieve") {
				writes++
				affected += n
				writeFetches += int(indexJoins.Value() - before)
			} else if run == 0 {
				for _, m := range joinMethods(planLines(t, planned, "explain "+q)) {
					methods[m]++
				}
			}
		}
	}
	if writes == 0 || affected == 0 {
		t.Fatalf("write statements did no work (%d statements, %d rows affected): the differential is vacuous", writes, affected)
	}
	for _, m := range []string{"scan", "hash", "loop", "fetch", "index"} {
		if methods[m] == 0 {
			t.Errorf("no retrieve planned a %s join step (methods chosen: %v)", m, methods)
		}
	}
	if writeFetches == 0 {
		t.Error("no replace or delete was qualified through an index fetch")
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
	if _, err := NewSession(db).Exec(`
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

// TestSignedZeroJoin: an equi-join on float columns matches -0.0 with
// +0.0, which compare equal, the same way in the planner and the naive
// executor: once as a hash join, whose table is keyed by the values'
// key encoding, and once as an index fetch into an index on the
// probed column.
func TestSignedZeroJoin(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fixture := func(indexed bool) *model.Database {
		db, _ := newSession(t)
		src := "define entity P (f = float, tag = integer)\ndefine entity Q (g = float, tag = integer)\n"
		if indexed {
			src += "define index on Q (g)\n"
		}
		if _, err := NewSession(db).Exec(src); err != nil {
			t.Fatal(err)
		}
		for i, f := range []float64{negZero, 0, 1.5, negZero} {
			if _, err := db.NewEntity("P", model.Attrs{"f": value.Float(f), "tag": value.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		// Q is large beside P, so an index on Q.g is worth probing.
		gs := []float64{0, negZero, -1.5, 1.5, 0}
		for i := range 200 {
			gs = append(gs, float64(i+2))
		}
		for i, g := range gs {
			if _, err := db.NewEntity("Q", model.Attrs{"g": value.Float(g), "tag": value.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	for _, c := range []struct {
		indexed bool
		method  string
	}{{false, "hash"}, {true, "index"}} {
		planned, naive := NewSession(fixture(c.indexed)), NewSession(fixture(c.indexed))
		naive.naive = true
		for _, s := range []*Session{planned, naive} {
			mustExec(t, s, "range of p is P range of q is Q")
		}
		const q = `retrieve (p.tag, q.tag) where p.f = q.g`
		if got := joinMethods(planLines(t, planned, "explain "+q)); !slices.Contains(got, c.method) {
			t.Fatalf("indexed %v: plan joins by %v, want %s", c.indexed, got, c.method)
		}
		// Three zeros on each side (one P zero is -0.0 twice) and 1.5 once.
		if n := diffExec(t, q, planned, naive); n != 0 {
			t.Fatalf("retrieve affected %d rows", n)
		}
		if got := len(mustExec(t, planned, q).Rows); got != 3*3+1 {
			t.Fatalf("indexed %v: %d joined rows, want 10", c.indexed, got)
		}
	}
}
