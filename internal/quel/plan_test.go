package quel

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ddl"
	"repro/internal/model"
	"repro/internal/value"
)

// setupPlanned builds a schema with a secondary index and an equi-join
// edge: CHORD(name) and NOTE(name, pitch, chord) with NOTE.pitch
// indexed, two chords, six notes.
func setupPlanned(t testing.TB, db *model.Database) {
	t.Helper()
	if _, err := ddl.Exec(db, `
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
		`    HashJoin (n.chord = c.name) (est=1, build=1, probes=6, hits=3)`,
		`      Scan n on NOTE (est=6, scanned=6, kept=6, streamed) (time=X)`,
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
		`      Scan c on CHORD (est=2, scanned=2, kept=0) (time=X)`,
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
	reg := db.Store().Obs()
	for _, name := range []string{
		"quel.plan.scan.index", "quel.plan.scan.full",
		"quel.plan.join.hash", "quel.plan.join.probe",
		"quel.plan.hash.probes", "quel.plan.hash.hits",
	} {
		if reg.Counter(name).Value() == 0 {
			t.Fatalf("counter %s = 0", name)
		}
	}
}
