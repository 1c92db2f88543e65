package demo

import (
	"testing"

	"repro/internal/cmn"
	"repro/internal/model"
	"repro/internal/quel"
	"repro/internal/storage"
	"repro/internal/value"
)

func newMusic(t testing.TB) *cmn.Music {
	t.Helper()
	store, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := model.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cmn.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLoadFugue(t *testing.T) {
	m := newMusic(t)
	score, voice, staff, err := LoadFugue(m)
	if err != nil {
		t.Fatal(err)
	}
	if score.Title() != "Fuge g-moll (subject)" {
		t.Fatal("title")
	}
	if staff.Key() != -2 {
		t.Fatalf("key: %d", staff.Key())
	}
	pns, err := voice.PerformedNotes()
	if err != nil {
		t.Fatal(err)
	}
	// The subject's pitches: G4 D5 Bb4 A4 G4 Bb4 A4 G4 F#4 A4 D4.
	want := []int{67, 74, 70, 69, 67, 70, 69, 67, 66, 69, 62}
	if len(pns) != len(want) {
		t.Fatalf("notes: %d want %d", len(pns), len(want))
	}
	for i, pn := range pns {
		if pn.Pitch != want[i] {
			t.Fatalf("pitch %d = %d want %d", i, pn.Pitch, want[i])
		}
	}
}

func TestFugueSequence(t *testing.T) {
	m := newMusic(t)
	_, voice, _, err := LoadFugue(m)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := FugueSequence(m, voice, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Notes) != 11 {
		t.Fatalf("events: %d", len(seq.Notes))
	}
	// Total duration: 8 beats at 120 BPM = 4 s.
	if got := seq.DurationUs(); got != 4_000_000 {
		t.Fatalf("duration: %d µs", got)
	}
}

func TestBuildBeamFigure(t *testing.T) {
	store, _ := storage.Open(storage.Options{})
	db, _ := model.Open(store)
	if _, err := quel.NewSession(db).Exec(BeamSchemaDDL); err != nil {
		t.Fatal(err)
	}
	g1, err := BuildBeamFigure(db)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	db.Walk("beam_content", g1, func(ref value.Ref, depth int) bool {
		v, _ := db.Attr(ref, "name")
		labels = append(labels, v.AsString())
		return true
	})
	want := []string{"g1", "c1", "g2", "c2", "c3", "g3", "c4", "g4", "c5", "c6"}
	if len(labels) != len(want) {
		t.Fatalf("walk: %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("walk order: %v", labels)
		}
	}
}

func TestRandomScoreReproducible(t *testing.T) {
	m1 := newMusic(t)
	_, v1, err := RandomScore(m1, 4, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newMusic(t)
	_, v2, err := RandomScore(m2, 4, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1) != 2 || len(v2) != 2 {
		t.Fatal("voices")
	}
	p1, _ := v1[0].PerformedNotes()
	p2, _ := v2[0].PerformedNotes()
	if len(p1) == 0 || len(p1) != len(p2) {
		t.Fatalf("note counts: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].Pitch != p2[i].Pitch || p1[i].Start.Cmp(p2[i].Start) != 0 {
			t.Fatal("not reproducible")
		}
	}
	// Each voice fills the movement exactly.
	total := cmn.Zero
	content, _ := v1[0].Content()
	for _, it := range content {
		total = total.Add(it.Duration)
	}
	if total.Cmp(cmn.Beats(16, 1)) != 0 {
		t.Fatalf("voice fill: %s", total)
	}
}

func TestLoadExposition(t *testing.T) {
	m := newMusic(t)
	score, voices, err := LoadExposition(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(voices) != 2 {
		t.Fatalf("voices: %d", len(voices))
	}
	d, _ := score.Duration()
	if d.Cmp(cmn.Beats(16, 1)) != 0 {
		t.Fatalf("duration: %s", d)
	}
	p1, _ := voices[0].PerformedNotes()
	p2, _ := voices[1].PerformedNotes()
	if len(p1) != 11 || len(p2) != 11 {
		t.Fatalf("notes: %d %d", len(p1), len(p2))
	}
	// The answer enters at beat 8 and lies a fourth below the subject.
	if !p1[0].Start.IsZero() || p2[0].Start.Cmp(cmn.Beats(8, 1)) != 0 {
		t.Fatalf("entries: %s %s", p1[0].Start, p2[0].Start)
	}
	// Subject starts on G4 (67); answer on D4 (62) — the dominant.
	if p1[0].Pitch != 67 || p2[0].Pitch != 62 {
		t.Fatalf("entry pitches: %d %d", p1[0].Pitch, p2[0].Pitch)
	}
	// Interval contours match (a real answer transposition).
	for i := 1; i < len(p1); i++ {
		ivS := p1[i].Pitch - p1[i-1].Pitch
		ivA := p2[i].Pitch - p2[i-1].Pitch
		// Tonal adjustments allow ±1 semitone differences; diatonic
		// transposition keeps contour.
		if (ivS > 0) != (ivA > 0) && ivS != 0 && ivA != 0 {
			t.Fatalf("contour differs at %d: %d vs %d", i, ivS, ivA)
		}
	}
}
