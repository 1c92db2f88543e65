package figuregen

import (
	"strings"
	"testing"

	"repro/internal/cmn"
	"repro/internal/model"
	"repro/internal/quel"
	"repro/internal/value"
)

func newDB(t testing.TB) *model.Database {
	t.Helper()
	db, err := freshModel()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRenderERFigure5(t *testing.T) {
	db := newDB(t)
	if _, err := quel.NewSession(db).Exec(`
define entity DATE (day = integer, month = integer, year = integer)
define entity COMPOSITION (title = string, composition_date = DATE)
define entity PERSON (name = string)
define relationship COMPOSER (person = PERSON, composition = COMPOSITION)
`); err != nil {
		t.Fatal(err)
	}
	out := renderER(db, []string{"DATE", "COMPOSITION", "PERSON"}, []string{"COMPOSER"})
	for _, want := range []string{
		"[COMPOSITION]", "composition_date = DATE (1:n)",
		"<COMPOSER> m:n", "person:[PERSON]", "composition:[COMPOSITION]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ER rendering missing %q:\n%s", want, out)
		}
	}
	// Unknown names are skipped, not fatal.
	out = renderER(db, []string{"NOPE"}, []string{"NOPE"})
	if strings.Contains(out, "NOPE") {
		t.Error("unknown names rendered")
	}
}

func TestRenderHO(t *testing.T) {
	db := newDB(t)
	quel.NewSession(db).Exec(`
define entity CHORD (name = integer)
define entity NOTE (name = integer)
define ordering note_in_chord (NOTE) under CHORD
`)
	g := db.HOGraph()
	out := renderHO(g)
	if !strings.Contains(out, "[CHORD]") || !strings.Contains(out, "note_in_chord") ||
		!strings.Contains(out, "(NOTE)") {
		t.Fatalf("HO rendering:\n%s", out)
	}
}

func TestRenderInstanceFigure6(t *testing.T) {
	db := newDB(t)
	quel.NewSession(db).Exec(`
define entity CHORD (name = string)
define entity NOTE (name = string)
define ordering note_in_chord (NOTE) under CHORD
`)
	y, _ := db.NewEntity("CHORD", model.Attrs{"name": value.Str("y")})
	for _, n := range []string{"u", "v", "w", "x"} {
		ref, _ := db.NewEntity("NOTE", model.Attrs{"name": value.Str(n)})
		db.InsertChild("note_in_chord", y, ref, model.Last())
	}
	g, err := db.InstanceGraph(y, "name")
	if err != nil {
		t.Fatal(err)
	}
	out := renderInstance(g)
	if !strings.Contains(out, "CHORD") || !strings.Contains(out, "(y)") {
		t.Fatalf("instance rendering:\n%s", out)
	}
	if !strings.Contains(out, "4 P-edges, 3 S-edges") {
		t.Fatalf("edge summary:\n%s", out)
	}
	// S-chain order u → v → w → x preserved.
	iu := strings.Index(out, "(u)")
	iw := strings.Index(out, "(w)")
	if iu < 0 || iw < 0 || iu > iw {
		t.Fatalf("sibling order:\n%s", out)
	}
}

func TestRenderAspectsAndInventory(t *testing.T) {
	out := renderAspects(cmn.Aspects())
	if !strings.Contains(out, "temporal:") || !strings.Contains(out, "timbral/pitch:") {
		t.Fatalf("aspects:\n%s", out)
	}
	if !strings.Contains(out, "NOTE") {
		t.Fatal("NOTE missing from aspects")
	}
	inv := renderInventory(cmn.Inventory())
	if !strings.Contains(inv, "SYNC") || !strings.Contains(inv, "Sets of simultaneous events") {
		t.Fatalf("inventory:\n%s", inv)
	}
}

func TestRenderSyncs(t *testing.T) {
	m, err := freshMusic()
	if err != nil {
		t.Fatal(err)
	}
	score, _ := m.NewScore("s", "")
	mv, _ := score.AddMovement("I")
	mv.AddMeasure(4, 4)
	orch, _ := m.NewOrchestra("o")
	orch.Performs(score)
	sec, _ := orch.AddSection("s")
	inst, _ := sec.AddInstrument("i", 0)
	part, _ := inst.AddPart("p")
	v, _ := part.AddVoice(1)
	v.AppendChord(cmn.Half, 1)
	v.AppendChord(cmn.Half, 1)
	if err := mv.Align([]*cmn.Voice{v}); err != nil {
		t.Fatal(err)
	}
	out, err := renderSyncs(mv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "measure 1:") || !strings.Contains(out, "sync at beat 0:") ||
		!strings.Contains(out, "sync at beat 2:") {
		t.Fatalf("syncs:\n%s", out)
	}
}
