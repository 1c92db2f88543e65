package ddl

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/value"
)

func memModel(t testing.TB) *model.Database {
	t.Helper()
	store, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := model.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// paperSchema is the exact DDL from §5.1 and §5.4 of the paper.
const paperSchema = `
define entity DATE (day = integer, month = integer, year = integer)
define entity COMPOSITION (title = string, composition_date = DATE)
define entity PERSON (name = string)
define relationship COMPOSER (person = PERSON, composition = COMPOSITION)

define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer)
define ordering note_in_chord (NOTE) under CHORD
`

func TestParsePaperSchema(t *testing.T) {
	stmts, err := Parse(paperSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 7 {
		t.Fatalf("statements = %d", len(stmts))
	}
	de, ok := stmts[1].(DefineEntity)
	if !ok || de.Name != "COMPOSITION" || len(de.Attrs) != 2 || de.Attrs[1].TypeName != "DATE" {
		t.Fatalf("COMPOSITION parse: %+v", stmts[1])
	}
	dr, ok := stmts[3].(DefineRelationship)
	if !ok || dr.Name != "COMPOSER" || len(dr.Attrs) != 2 {
		t.Fatalf("COMPOSER parse: %+v", stmts[3])
	}
	do, ok := stmts[6].(DefineOrdering)
	if !ok || do.Name != "note_in_chord" || do.Parent != "CHORD" || len(do.Children) != 1 {
		t.Fatalf("ordering parse: %+v", stmts[6])
	}
}

func TestParseOrderingVariants(t *testing.T) {
	// Unnamed ordering, multiple children (§5.5 inhomogeneous example).
	stmts, err := Parse("define ordering (CHORD, REST) under VOICE")
	if err != nil {
		t.Fatal(err)
	}
	do := stmts[0].(DefineOrdering)
	if do.Name != "" || len(do.Children) != 2 || do.Parent != "VOICE" {
		t.Fatalf("%+v", do)
	}
	// Recursive ordering (figure 8).
	stmts, err = Parse("define ordering (BEAM_GROUP, CHORD) under BEAM_GROUP")
	if err != nil {
		t.Fatal(err)
	}
	do = stmts[0].(DefineOrdering)
	if do.Children[0] != "BEAM_GROUP" || do.Parent != "BEAM_GROUP" {
		t.Fatalf("%+v", do)
	}
	// No under clause parses (optional in the BNF)...
	stmts, err = Parse("define ordering nop (NOTE)")
	if err != nil {
		t.Fatal(err)
	}
	if stmts[0].(DefineOrdering).Parent != "" {
		t.Fatal("parent should be empty")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"retrieve (x.all)",            // not DDL
		"define widget FOO ()",        // unknown define kind
		"define entity (a = integer)", // missing name
		"define entity X a = integer", // missing paren
		"define entity X (a integer)", // missing =
		"define entity X (a = 3)",     // non-identifier type
		"define ordering (NOTE under CHORD",
		"define index NOTE (a)", // missing on
		`define entity X (a = "unterminated)`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestExecPaperSchema(t *testing.T) {
	db := memModel(t)
	msgs, err := Exec(db, paperSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 7 {
		t.Fatalf("messages: %v", msgs)
	}
	// COMPOSITION.composition_date is a reference attribute to DATE
	// (the implicit 1:n relationship of §5.1).
	et, ok := db.EntityType("COMPOSITION")
	if !ok {
		t.Fatal("COMPOSITION not defined")
	}
	i, ok := et.AttrIndex("composition_date")
	if !ok || et.Attrs[i].Kind != value.KindRef || et.Attrs[i].RefType != "DATE" {
		t.Fatalf("composition_date: %+v", et.Attrs)
	}
	// COMPOSER has roles person and composition.
	rt, ok := db.RelationshipType("COMPOSER")
	if !ok || len(rt.Roles) != 2 || rt.Roles[0].EntityType != "PERSON" {
		t.Fatalf("COMPOSER: %+v", rt)
	}
	// note_in_chord ordering exists.
	if _, ok := db.OrderingByName("note_in_chord"); !ok {
		t.Fatal("ordering not defined")
	}
}

func TestExecErrors(t *testing.T) {
	db := memModel(t)
	if _, err := Exec(db, "define entity X (a = wibbletype)"); err == nil {
		t.Fatal("unknown attr type accepted")
	}
	if _, err := Exec(db, "define ordering o (NOTE)"); err == nil || !strings.Contains(err.Error(), "under clause") {
		t.Fatalf("parentless ordering: %v", err)
	}
	if _, err := Exec(db, "define relationship R (a = wibbletype, b = alsobad)"); err == nil {
		t.Fatal("unknown role type accepted")
	}
	if _, err := Exec(db, "define index on NOPE (a)"); err == nil {
		t.Fatal("index on missing entity accepted")
	}
}

func TestExecIndex(t *testing.T) {
	db := memModel(t)
	if _, err := Exec(db, "define entity NOTE (pitch = integer)"); err != nil {
		t.Fatal(err)
	}
	msgs, err := Exec(db, "define index on NOTE (pitch)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msgs[0], "ix_note_pitch") {
		t.Fatalf("msg: %v", msgs)
	}
	// Duplicate index fails cleanly.
	if _, err := Exec(db, "define index on NOTE (pitch)"); err == nil {
		t.Fatal("duplicate index accepted")
	}
}

func TestExecDropIndex(t *testing.T) {
	db := memModel(t)
	if _, err := Exec(db, "define entity NOTE (pitch = integer)\ndefine index on NOTE (pitch)"); err != nil {
		t.Fatal(err)
	}
	msgs, err := Exec(db, "drop index on NOTE (pitch)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msgs[0], "dropped index ix_note_pitch") {
		t.Fatalf("msg: %v", msgs)
	}
	if _, ok := db.AttrIndexName("NOTE", "pitch"); ok {
		t.Fatal("index still resolvable after drop")
	}
	// Dropping again (or on a missing entity) fails cleanly.
	if _, err := Exec(db, "drop index on NOTE (pitch)"); err == nil {
		t.Fatal("double drop accepted")
	}
	if _, err := Exec(db, "drop index on NOPE (pitch)"); err == nil {
		t.Fatal("drop on missing entity accepted")
	}
	// The define can be replayed after the drop.
	if _, err := Exec(db, "define index on NOTE (pitch)"); err != nil {
		t.Fatalf("redefine after drop: %v", err)
	}
}

func TestExecRelationshipWithAttrs(t *testing.T) {
	db := memModel(t)
	src := `
define entity PERSON (name = string)
define entity COMPOSITION (title = string)
define relationship COMPOSER (person = PERSON, composition = COMPOSITION, share = float)
`
	if _, err := Exec(db, src); err != nil {
		t.Fatal(err)
	}
	rt, _ := db.RelationshipType("COMPOSER")
	if len(rt.Roles) != 2 || len(rt.Attrs) != 1 || rt.Attrs[0].Name != "share" {
		t.Fatalf("relationship attrs: %+v", rt)
	}
}
