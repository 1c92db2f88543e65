package quel

import (
	"context"
	"strings"
	"testing"

	"repro/internal/value"
)

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
	for _, st := range stmts {
		if !IsDDL(st) || ReadOnly(st) {
			t.Fatalf("%T misclassified", st)
		}
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

func TestParseDefineErrors(t *testing.T) {
	bad := []string{
		"define widget FOO ()",        // unknown define kind
		"define entity (a = integer)", // missing name
		"define entity X a = integer", // missing paren
		"define entity X (a integer)", // missing =
		"define entity X (a = 3)",     // non-identifier type
		"define entity X (a = integer,)",
		"define ordering (NOTE under CHORD",
		"define index NOTE (a)", // missing on
		"drop NOTE (a)",         // missing index
		`define entity X (a = "unterminated)`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestParseMixedSource: definitions and QUEL share one parser, so one
// source may hold both, with comments anywhere.
func TestParseMixedSource(t *testing.T) {
	stmts, err := Parse(`-- schema first
define entity X (a = integer)
append to X (a = 1)
drop index on X (a)
range of x is X retrieve (x.a)`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"define entity", "append", "drop index", "range", "retrieve"}
	if len(stmts) != len(want) {
		t.Fatalf("statements = %d, want %d", len(stmts), len(want))
	}
	for i, st := range stmts {
		if stmtKind(st) != want[i] {
			t.Errorf("statement %d is %s, want %s", i, stmtKind(st), want[i])
		}
	}
}

// execEach runs src statement by statement and returns the
// definitions' confirmations.
func execEach(t *testing.T, s *Session, src string) ([]string, error) {
	t.Helper()
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	var msgs []string
	for _, st := range stmts {
		r, err := s.ExecStmt(context.Background(), st)
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, r.Message)
	}
	return msgs, nil
}

func TestExecPaperSchema(t *testing.T) {
	db, s := newSession(t)
	msgs, err := execEach(t, s, paperSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 7 || msgs[0] != "defined entity DATE with 3 attributes" {
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

func TestExecDefineErrors(t *testing.T) {
	_, s := newSession(t)
	if _, err := s.Exec("define entity X (a = wibbletype)"); err == nil {
		t.Fatal("unknown attr type accepted")
	}
	if _, err := s.Exec("define ordering o (NOTE)"); err == nil || !strings.Contains(err.Error(), "under clause") {
		t.Fatalf("parentless ordering: %v", err)
	}
	if _, err := s.Exec("define relationship R (a = wibbletype, b = alsobad)"); err == nil {
		t.Fatal("unknown role type accepted")
	}
	if _, err := s.Exec("define index on NOPE (a)"); err == nil {
		t.Fatal("index on missing entity accepted")
	}
	if _, err := s.Exec("explain define entity Y (a = integer)"); err == nil || !strings.Contains(err.Error(), "not define entity") {
		t.Fatalf("explained definition: %v", err)
	}
	if _, err := Prepare("define entity Y (a = integer)"); err == nil {
		t.Fatal("definition prepared")
	}
}

func TestExecIndex(t *testing.T) {
	_, s := newSession(t)
	mustExec(t, s, "define entity NOTE (pitch = integer)")
	res := mustExec(t, s, "define index on NOTE (pitch)")
	if !strings.Contains(res.Message, "ix_note_pitch") || res.String() != res.Message {
		t.Fatalf("msg: %q", res.Message)
	}
	// Duplicate index fails cleanly.
	if _, err := s.Exec("define index on NOTE (pitch)"); err == nil {
		t.Fatal("duplicate index accepted")
	}
}

func TestExecDropIndex(t *testing.T) {
	db, s := newSession(t)
	mustExec(t, s, "define entity NOTE (pitch = integer)\ndefine index on NOTE (pitch)")
	res := mustExec(t, s, "drop index on NOTE (pitch)")
	if !strings.Contains(res.Message, "dropped index ix_note_pitch") {
		t.Fatalf("msg: %q", res.Message)
	}
	if _, ok := db.AttrIndexName("NOTE", "pitch"); ok {
		t.Fatal("index still resolvable after drop")
	}
	// Dropping again (or on a missing entity) fails cleanly.
	if _, err := s.Exec("drop index on NOTE (pitch)"); err == nil {
		t.Fatal("double drop accepted")
	}
	if _, err := s.Exec("drop index on NOPE (pitch)"); err == nil {
		t.Fatal("drop on missing entity accepted")
	}
	// The define can be replayed after the drop.
	mustExec(t, s, "define index on NOTE (pitch)")
}

func TestExecRelationshipWithAttrs(t *testing.T) {
	db, s := newSession(t)
	mustExec(t, s, `
define entity PERSON (name = string)
define entity COMPOSITION (title = string)
define relationship COMPOSER (person = PERSON, composition = COMPOSITION, share = float)
`)
	rt, _ := db.RelationshipType("COMPOSER")
	if len(rt.Roles) != 2 || len(rt.Attrs) != 1 || rt.Attrs[0].Name != "share" {
		t.Fatalf("relationship attrs: %+v", rt)
	}
}

// TestExecMixedSource: a QUEL statement after a definition in the same
// source sees the new type, and the source's result is its last
// statement's.
func TestExecMixedSource(t *testing.T) {
	_, s := newSession(t)
	res := mustExec(t, s, `define entity X (a = integer)
append to X (a = 1)
append to X (a = 2)
range of x is X
retrieve (x.a) sort by a`)
	if len(res.Rows) != 2 || res.Rows[1][0].AsInt() != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
}
