package mdm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cmn"
	"repro/internal/darms"
	"repro/internal/demo"
	"repro/internal/midi"
	"repro/internal/pianoroll"
	"repro/internal/sound"
	"repro/internal/value"
)

// TestEndToEndGloria drives the whole stack on figure 4's fragment:
// DARMS → score → QUEL analysis → performance → piano roll → sound.
func TestEndToEndGloria(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	items, err := darms.Parse(darms.Figure4)
	if err != nil {
		t.Fatal(err)
	}
	score, err := darms.ToScore(m.Music, items, "Gloria in excelsis")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Catalog.Refresh(); err != nil {
		t.Fatal(err)
	}
	s := m.NewSession()

	// QUEL: the text underlay via the SYLLABLE_OF relationship.
	res, err := s.QueryContext(context.Background(), `
range of sy is SYLLABLE
range of n is NOTE
retrieve (sy.text)
  where SYLLABLE_OF.syllable is sy and SYLLABLE_OF.note is n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("syllable rows: %d", len(res.Rows))
	}
	var text strings.Builder
	for _, r := range res.Rows {
		text.WriteString(r[0].AsString())
	}
	joined := strings.ReplaceAll(text.String(), "-", "")
	if !strings.Contains(strings.ToLower(joined), "gloria") {
		t.Fatalf("underlay: %q", text.String())
	}

	// QUEL over the meta-catalog: the temporal orderings exist as data.
	res, err = s.QueryContext(context.Background(), `
range of o is ORDERING
retrieve (o.order_name) where o.order_name = "sync_in_measure"`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("catalogued ordering: %v %v", res, err)
	}

	// Perform and render.
	voice, _, err := demo.SoloHandles(m.Music, score)
	if err != nil {
		t.Fatal(err)
	}
	notes, err := voice.PerformedNotes()
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 24 {
		t.Fatalf("performed notes: %d", len(notes))
	}
	tm := cmn.NewTempoMap(120)
	seq := midi.FromPerformance(notes, tm, 0)
	if err := seq.Validate(); err != nil {
		t.Fatal(err)
	}
	smf, err := midi.WriteSMF(seq)
	if err != nil {
		t.Fatal(err)
	}
	back, err := midi.ReadSMF(smf)
	if err != nil || len(back.Notes) != 24 {
		t.Fatalf("SMF round trip: %d notes, %v", len(back.Notes), err)
	}
	roll, err := pianoroll.FromSequence(seq, 250_000)
	if err != nil {
		t.Fatal(err)
	}
	if roll.Density() == 0 {
		t.Fatal("empty roll")
	}
	buf, err := sound.Synthesize(seq, sound.Organ, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if buf.RMS() < 0.005 {
		t.Fatalf("silent synthesis: %g", buf.RMS())
	}
	// Lossless codec round-trips the whole performance.
	dec, err := sound.DecodeDelta(sound.EncodeDelta(buf))
	if err != nil {
		t.Fatal(err)
	}
	if snr, _ := sound.SNR(buf, dec); snr != 200 {
		t.Fatal("delta codec not lossless")
	}
}

// TestOrderingsSurviveCrash checks that hierarchical orderings recover
// from the WAL: build a score, sync without checkpointing, "crash", and
// reopen.
func TestOrderingsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	items, _ := darms.Parse(demo.FugueSubjectDARMS)
	if _, err := darms.ToScore(m.Music, items, "crash test"); err != nil {
		t.Fatal(err)
	}
	if err := m.Store.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no checkpoint.

	m2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	scores, err := m2.Music.Scores()
	if err != nil || len(scores) != 1 {
		t.Fatalf("scores after crash: %v %v", scores, err)
	}
	voice, staff, err := demo.SoloHandles(m2.Music, scores[0])
	if err != nil {
		t.Fatal(err)
	}
	_ = staff
	content, err := voice.Content()
	if err != nil {
		t.Fatal(err)
	}
	if len(content) != 11 {
		t.Fatalf("voice content after crash: %d", len(content))
	}
	// Order is intact: durations follow the DARMS source.
	wantFirst := cmn.Quarter
	if content[0].Duration.Cmp(wantFirst) != 0 {
		t.Fatalf("first duration: %s", content[0].Duration)
	}
	// Pitches still resolved.
	notes, err := voice.PerformedNotes()
	if err != nil || len(notes) != 11 || notes[0].Pitch != 67 {
		t.Fatalf("notes after crash: %d %v", len(notes), err)
	}
	// The database remains writable and consistent.
	if _, err := m2.Music.NewScore("post-crash", ""); err != nil {
		t.Fatal(err)
	}
}

// TestMetaCatalogConsistency cross-checks the meta-catalog against the
// live schema after CMN + biblio bootstrap.
func TestMetaCatalogConsistency(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.NewSession()
	// Every model entity type appears exactly once in the ENTITY
	// relation.
	res, err := s.QueryContext(context.Background(), `range of e is ENTITY retrieve (e.entity_name)`)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range res.Rows {
		seen[r[0].AsString()]++
	}
	for _, name := range m.Model.EntityTypes() {
		if seen[name] != 1 {
			t.Errorf("entity %s catalogued %d times", name, seen[name])
		}
	}
	// Attribute counts agree for a sample of types.
	for _, name := range []string{"NOTE", "SCORE", "CATALOG_ENTRY", "ATTRIBUTE"} {
		et, _ := m.Model.EntityType(name)
		refs, err := m.Catalog.AttributeRefs(name)
		if err != nil || len(refs) != len(et.Attrs) {
			t.Errorf("%s: %d catalogued attrs, schema has %d (%v)",
				name, len(refs), len(et.Attrs), err)
		}
	}
}

// TestQUELOverScoreHierarchy runs ordering-operator queries across the
// CMN hierarchy built by the typed API.
func TestQUELOverScoreHierarchy(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	score, _ := m.Music.NewScore("hier", "")
	mv, _ := score.AddMovement("I")
	me1, _ := mv.AddMeasure(4, 4)
	me2, _ := mv.AddMeasure(4, 4)
	_ = me1
	_ = me2
	s := m.NewSession()
	// Measures are ordered under the movement; "measure m1 before m2".
	res, err := s.QueryContext(context.Background(), `
range of m1, m2 is MEASURE
retrieve (m1.number) where m1 before m2 in measure_in_movement and m2.number = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("measure ordering via QUEL: %v", res.Rows)
	}
	// Movement is the parent through under.
	res, err = s.QueryContext(context.Background(), `
range of mv is MOVEMENT
range of me is MEASURE
retrieve (mv.name) where me under mv in measure_in_movement and me.number = 1`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "I" {
		t.Fatalf("under via QUEL: %v %v", res, err)
	}
}

// TestDeleteCascadeThroughQUEL deletes a measure via the model API after
// QUEL located it, verifying referential cleanup.
func TestDeleteCascadeThroughQUEL(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	items, _ := darms.Parse(demo.FugueSubjectDARMS)
	score, err := darms.ToScore(m.Music, items, "cascade")
	if err != nil {
		t.Fatal(err)
	}
	before := m.Model.Count("NOTE")
	if before != 11 {
		t.Fatalf("notes: %d", before)
	}
	// Delete the whole score subtree: movements, measures, syncs...
	// Chords/notes hang under voices (timbral), so delete those too.
	if err := m.Model.DeleteSubtree(score.Ref); err != nil {
		t.Fatal(err)
	}
	var orchs []value.Ref
	m.Model.Instances("ORCHESTRA", func(ref value.Ref, _ value.Tuple) bool {
		orchs = append(orchs, ref)
		return true
	})
	for _, o := range orchs {
		if err := m.Model.DeleteSubtree(o); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Model.Count("MEASURE"); n != 0 {
		t.Fatalf("measures after cascade: %d", n)
	}
	if n := m.Model.Count("SYNC"); n != 0 {
		t.Fatalf("syncs after cascade: %d", n)
	}
}
