package quel

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/value"
)

// setupPlanned builds a schema with a secondary index and an equi-join
// edge: CHORD(name) and NOTE(name, pitch, chord) with NOTE.pitch
// indexed, two chords, six notes.
func setupPlanned(t testing.TB, db *model.Database) {
	t.Helper()
	if _, err := NewSession(db).Exec(`
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer, chord = integer)
define ordering note_in_chord (NOTE) under CHORD
define index on NOTE (pitch)
`); err != nil {
		t.Fatal(err)
	}
	chords := make([]value.Ref, 2)
	for i := range chords {
		chords[i], _ = db.NewEntity("CHORD", model.Attrs{"name": value.Int(int64(i + 1))})
	}
	for i := 1; i <= 6; i++ {
		n, _ := db.NewEntity("NOTE", model.Attrs{
			"name":  value.Int(int64(i)),
			"pitch": value.Int(int64(59 + i)),
			"chord": value.Int(int64(i%2 + 1)),
		})
		if err := db.InsertChild("note_in_chord", chords[i%2], n, model.Last()); err != nil {
			t.Fatal(err)
		}
	}
}

func assertPlan(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainIndexScan(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	got := planLines(t, s,
		`explain retrieve (NOTE.name) where NOTE.pitch >= 61 and NOTE.pitch < 63`)
	want := []string{
		`Retrieve (rows=2) (time=X)`,
		`  Filter: ((NOTE.pitch >= 61) and (NOTE.pitch < 63)) (in=2, out=2)`,
		`    IndexScan NOTE on NOTE using ix_note_pitch [pitch >= 61 and pitch < 63] (est=2, scanned=2, kept=2) (time=X)`,
		`      Sarg: NOTE.pitch >= 61 and NOTE.pitch < 63`,
	}
	assertPlan(t, got, want)
}

func TestExplainHashJoinReorder(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	mustExec(t, s, `range of n is NOTE
range of c is CHORD`)
	// n, the larger input, is read in full whatever its place and is
	// equi-joined to c, so it drives the pipeline, streaming: the hash
	// table is built on c's one surviving binding, not on n's six.
	got := planLines(t, s,
		`explain retrieve (n.name) where n.chord = c.name and c.name = 1`)
	want := []string{
		`Retrieve (rows=3) (time=X)`,
		`  Filter: ((n.chord = c.name) and (c.name = 1)) (in=3, out=3)`,
		`    HashJoin (n.chord = c.name) (est=1, build=1, probes=3, hits=3)`,
		`      Scan n on NOTE (est=6, scanned=6, kept=3, streamed) (time=X)`,
		`        Sarg: n.chord = 1 (derived)`,
		`      Scan c on CHORD (est=2, scanned=2, kept=1) (time=X)`,
		`        Sarg: c.name = 1`,
	}
	assertPlan(t, got, want)
}

func TestExplainSortElision(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	got := planLines(t, s, `explain retrieve (p = NOTE.pitch) sort by p desc`)
	want := []string{
		`Retrieve (rows=6) (time=X)`,
		`  Sort: p desc (satisfied by IndexScan ix_note_pitch)`,
		`    IndexScan NOTE on NOTE using ix_note_pitch (est=6, scanned=6, kept=6) (time=X)`,
	}
	assertPlan(t, got, want)
	// The elided sort must still produce descending output (the index is
	// read in reverse).
	res := mustExec(t, s, `retrieve (p = NOTE.pitch) sort by p desc`)
	for i := 1; i < len(res.Rows); i++ {
		if value.Compare(res.Rows[i-1][0], res.Rows[i][0]) < 0 {
			t.Fatalf("rows not descending: %v", res.Rows)
		}
	}
}

func TestExplainEmptyScanShortCircuit(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	mustExec(t, s, `range of n is NOTE
range of c is CHORD`)
	got := planLines(t, s,
		`explain retrieve (n.name) where n.chord = c.name and c.name = 99`)
	want := []string{
		`Retrieve (rows=0) (time=X)`,
		`  Filter: ((n.chord = c.name) and (c.name = 99)) (in=0, out=0)`,
		`    NestedLoopJoin (est=12, actual=0)`,
		`      Scan c on CHORD (est=2, scanned=0, kept=0, pages=0/1) (time=X)`,
		`        Sarg: c.name = 99`,
		`      Scan n on NOTE (est=6, skipped: earlier variable empty)`,
	}
	assertPlan(t, got, want)
}

// TestPlannerReplaceDeleteUseIndex confirms updates and deletes run
// through the same planner (index maintenance keeps subsequent range
// scans correct).
func TestPlannerReplaceDeleteUseIndex(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	res := mustExec(t, s, `replace NOTE (pitch = NOTE.pitch + 10) where NOTE.pitch >= 63`)
	if res.Affected != 3 {
		t.Fatalf("replace affected = %d, want 3", res.Affected)
	}
	res = mustExec(t, s, `retrieve (NOTE.name) where NOTE.pitch >= 73`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows after replace = %d, want 3", len(res.Rows))
	}
	res = mustExec(t, s, `delete NOTE where NOTE.pitch >= 73`)
	if res.Affected != 3 {
		t.Fatalf("delete affected = %d, want 3", res.Affected)
	}
	if res := mustExec(t, s, `retrieve (NOTE.name)`); len(res.Rows) != 3 {
		t.Fatalf("remaining = %d, want 3", len(res.Rows))
	}
}

// TestFetchAtSnapshot pins the snapshot safety of ordering fetches: a
// statement at a snapshot pinned before a note (and with it its edge)
// was deleted still fetches that note, because the fetch reads the
// note's version at the pin through NOTE's by_ref index.  A fetch
// from the latest state loses it.
func TestFetchAtSnapshot(t *testing.T) {
	db, s := newSession(t)
	_, notes := setupChords(t, db)
	mustExec(t, s, `range of n1, n2 is NOTE`)
	const src = `retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 3`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	snap, err := db.BeginSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := db.DeleteEntity(notes[0]); err != nil {
		t.Fatal(err)
	}

	s.snap, s.rd = snap, snap.View
	res, ps, err := s.retrieveStats(ctx, stmts[0].(Retrieve))
	s.snap, s.rd = nil, model.View{}
	if err != nil {
		t.Fatal(err)
	}
	if got := canonRows(res); got != "1\n2" {
		t.Fatalf("at the pinned snapshot: rows %q, want notes 1 and 2", got)
	}
	if len(ps.Steps) != 2 || ps.Steps[1].Method != "fetch" || ps.Steps[1].Fetched != 2 {
		t.Fatalf("steps %+v: want n1 fetched twice", ps.Steps)
	}
	if got := canonRows(mustExec(t, s, src)); got != "2" {
		t.Fatalf("after the delete: rows %q, want note 2", got)
	}
}

// TestPlanMetrics checks that plan-choice counters move when the
// corresponding paths run.
func TestPlanMetrics(t *testing.T) {
	db, s := newSession(t)
	setupPlanned(t, db)
	mustExec(t, s, `range of n is NOTE
range of c is CHORD`)
	mustExec(t, s, `retrieve (NOTE.name) where NOTE.pitch = 62`)
	mustExec(t, s, `retrieve (n.name) where n.chord = c.name`)
	mustExec(t, s, `retrieve (n.name) where n under c in note_in_chord`)
	mustExec(t, s, `retrieve (n.name) where n.pitch = c.name`)
	reg := db.Store().Obs()
	for _, name := range []string{
		"quel.plan.scan.index", "quel.plan.scan.full",
		"quel.plan.join.hash", "quel.plan.join.probe", "quel.plan.join.index",
		"quel.plan.hash.probes", "quel.plan.hash.hits",
	} {
		if reg.Counter(name).Value() == 0 {
			t.Fatalf("counter %s = 0", name)
		}
	}
}

// TestExplainDerivedSargs: a constant sarg crosses top-level equi-joins
// between attributes of one declared kind, along a chain, and filters the
// other side where it is read, marked (derived).  It does not cross an
// int = float join, a disjunct, or into an index fetch whose key already
// equals a value that passed it.
func TestExplainDerivedSargs(t *testing.T) {
	s := NewSession(diffFixture(t))
	mustExec(t, s, diffDecls)
	assertPlan(t, planLines(t, s, `explain retrieve (a.y, b.z, n.name) where a.x = b.x and b.x = n.chord and a.x >= 2`)[2:], []string{
		`    HashJoin (b.x = n.chord) (est=668, build=34, probes=69, hits=324)`,
		`      HashJoin (a.x = b.x) (est=63, build=19, probes=25, hits=69)`,
		`        IndexScan a on A using ix_a_x [x >= 2] (est=25, scanned=25, kept=25, streamed) (time=X)`,
		`          Sarg: a.x >= 2`,
		`        Scan b on B (est=28, scanned=28, kept=19) (time=X)`,
		`          Sarg: b.x >= 2 (derived)`,
		`      Scan n on NOTE (est=42, scanned=42, kept=34) (time=X)`,
		`        Sarg: n.chord >= 2 (derived)`,
	})
	assertPlan(t, planLines(t, s, `explain retrieve (w.name, r.role) where r.writer = w.num and w.num >= 2 and w.num < 5`)[2:], []string{
		`    IndexFetch (r.writer = w.num) using ix_wr_writer (est=13, probes=3, fetched=17, kept=17)`,
		`      IndexScan w on W using ix_w_num [num >= 2 and num < 5] (est=3, scanned=3, kept=3, streamed) (time=X)`,
		`        Sarg: w.num >= 2 and w.num < 5`,
		`      Fetch r on WR using ix_wr_writer`,
	})
	for _, q := range []string{
		`explain retrieve (a.w, b.x) where a.w = b.x and b.x >= 3`,
		`explain retrieve (a.y, b.z) where a.x = b.x and (a.x > 3 or a.y = 1)`,
		`explain retrieve (a.y, b.z) where a.x = b.x or a.x > 3`,
	} {
		if plan := strings.Join(planLines(t, s, q), "\n"); strings.Contains(plan, "(derived)") {
			t.Errorf("%s: a sarg was carried\n%s", q, plan)
		}
	}
}

// TestDropIndexReplans: a statement that ranges an index plans again
// after the index is dropped; the new plan never names the index and
// answers as before.
func TestDropIndexReplans(t *testing.T) {
	db, s := newSession(t)
	buildScores(t, db, 3, 10)
	mustExec(t, s, "range of n is NOTE")

	q := `retrieve (nm = n.name) where n.pitch >= 40 and n.pitch < 70`
	want := canonRows(mustExec(t, s, q))
	eq := "explain " + q
	ixName, ok := db.AttrIndexName("NOTE", "pitch")
	if !ok {
		t.Fatal("no index on NOTE(pitch)")
	}
	if before := strings.Join(planLines(t, s, eq), "\n"); !strings.Contains(before, ixName) {
		t.Fatalf("expected a plan over %s:\n%s", ixName, before)
	}
	if err := db.DropIndex("NOTE", ixName); err != nil {
		t.Fatal(err)
	}
	// The new plan may pick another index; it must just never name the
	// dropped one.
	if after := strings.Join(planLines(t, s, eq), "\n"); strings.Contains(after, ixName) {
		t.Fatalf("plan still names the dropped index %s:\n%s", ixName, after)
	}
	if got := canonRows(mustExec(t, s, q)); got != want {
		t.Fatalf("result changed after index drop:\n%s\nwant:\n%s", got, want)
	}
}

// TestPlanCacheReplaysIndexFetch: the join method follows each
// execution's literals.  A narrow writer range fetches its works by key;
// the same statement over every writer reads more wrote rows than WORK
// holds, so it hash-joins the works instead — and both answer as the
// naive executor does.
func TestPlanCacheReplaysIndexFetch(t *testing.T) {
	db, s := newSession(t)
	setupWriters(t, db)
	naive := NewSession(db)
	naive.naive = true
	decls := "range of e is WORK\nrange of w is WROTE"
	mustExec(t, s, decls)
	mustExec(t, naive, decls)
	q := `retrieve (w.role, e.title) where w.writer >= %d and w.writer < %d and e.number = w.work`
	for _, tc := range []struct {
		lo, hi int
		method string
	}{
		{2, 3, "IndexFetch (e.number = w.work) using ix_work_number"},
		{1, 4, "HashJoin (e.number = w.work)"},
		{3, 4, "IndexFetch (e.number = w.work) using ix_work_number"},
	} {
		src := fmt.Sprintf(q, tc.lo, tc.hi)
		plan := strings.Join(planLines(t, s, "explain "+src), "\n")
		if !strings.Contains(plan, tc.method) || !strings.Contains(plan, "IndexScan w on WROTE") {
			t.Fatalf("writers [%d, %d): want %s after an IndexScan of w:\n%s", tc.lo, tc.hi, tc.method, plan)
		}
		if got, want := canonRows(mustExec(t, s, src)), canonRows(mustExec(t, naive, src)); got != want {
			t.Fatalf("writers [%d, %d): planner\n%s\nnaive\n%s", tc.lo, tc.hi, got, want)
		}
	}
}
