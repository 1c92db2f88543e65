package quel

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/value"
)

func newSession(t testing.TB) (*model.Database, *Session) {
	t.Helper()
	store, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := model.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	return db, NewSession(db)
}

func mustExec(t testing.TB, s *Session, src string) *Result {
	t.Helper()
	r, err := s.Exec(src)
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	return r
}

// setupChords builds the §5.6 example schema and the chord/note data for
// the ordering-operator queries.
func setupChords(t testing.TB, db *model.Database) (chord value.Ref, notes []value.Ref) {
	t.Helper()
	if _, err := NewSession(db).Exec(`
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer)
define ordering note_in_chord (NOTE) under CHORD
`); err != nil {
		t.Fatal(err)
	}
	chord, _ = db.NewEntity("CHORD", model.Attrs{"name": value.Int(1)})
	for i := 1; i <= 5; i++ {
		n, _ := db.NewEntity("NOTE", model.Attrs{
			"name": value.Int(int64(i)), "pitch": value.Int(int64(59 + i)),
		})
		if err := db.InsertChild("note_in_chord", chord, n, model.Last()); err != nil {
			t.Fatal(err)
		}
		notes = append(notes, n)
	}
	return chord, notes
}

func TestParseStatements(t *testing.T) {
	stmts, err := Parse(`
range of n1, n2 is NOTE
retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 3
append to NOTE (name = 9, pitch = 64)
replace n1 (pitch = n1.pitch + 1) where n1.name = 9
delete n1 where n1.name = 9
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 5 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	rs := stmts[0].(RangeStmt)
	if len(rs.Vars) != 2 || rs.EntityType != "NOTE" {
		t.Fatalf("range: %+v", rs)
	}
	r := stmts[1].(Retrieve)
	w, ok := r.Where.(Binary)
	if !ok || w.Op != "and" {
		t.Fatalf("where: %+v", r.Where)
	}
	oo, ok := w.L.(OrderOp)
	if !ok || oo.Op != "before" || oo.Order != "note_in_chord" {
		t.Fatalf("order op: %+v", w.L)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"retrieve n.name",               // missing parens
		"retrieve (n.name",              // unclosed
		"range n is NOTE",               // missing of
		"range of n NOTE",               // missing is
		"append NOTE (a = 1)",           // missing to
		"replace (a = 1)",               // missing var
		"retrieve (sum(n.all))",         // sum needs attribute
		"retrieve (n.name) where",       // dangling where
		"frobnicate (x)",                // unknown statement
		"retrieve (n.name) where n.n =", // dangling comparison
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestStarSpangledBanner runs the §5.6 is-operator query verbatim.
func TestStarSpangledBanner(t *testing.T) {
	db, s := newSession(t)
	if _, err := NewSession(db).Exec(`
define entity PERSON (name = string)
define entity COMPOSITION (title = string)
define relationship COMPOSER (composer = PERSON, composition = COMPOSITION)
`); err != nil {
		t.Fatal(err)
	}
	key, _ := db.NewEntity("PERSON", model.Attrs{"name": value.Str("Francis Scott Key")})
	smith, _ := db.NewEntity("PERSON", model.Attrs{"name": value.Str("John Stafford Smith")})
	bach, _ := db.NewEntity("PERSON", model.Attrs{"name": value.Str("J. S. Bach")})
	ssb, _ := db.NewEntity("COMPOSITION", model.Attrs{"title": value.Str("The Star Spangled Banner")})
	fugue, _ := db.NewEntity("COMPOSITION", model.Attrs{"title": value.Str("Fuge g-moll")})
	db.Relate("COMPOSER", map[string]value.Ref{"composer": key, "composition": ssb}, nil)
	db.Relate("COMPOSER", map[string]value.Ref{"composer": smith, "composition": ssb}, nil)
	db.Relate("COMPOSER", map[string]value.Ref{"composer": bach, "composition": fugue}, nil)

	// The COMPOSER relationship is itself queryable: treat it as entity
	// bindings via its ref attributes.  The paper's query uses implicit
	// range variables named after the entity types.
	res := mustExec(t, s, `
retrieve (PERSON.name)
  where COMPOSITION.title = "The Star Spangled Banner"
  and COMPOSER.composition is COMPOSITION
  and COMPOSER.composer is PERSON
`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	got := map[string]bool{}
	for _, r := range res.Rows {
		got[r[0].AsString()] = true
	}
	if !got["Francis Scott Key"] || !got["John Stafford Smith"] {
		t.Fatalf("wrong composers: %v", got)
	}
}

// TestPaperOrderingQueries runs the four §5.6 example queries against the
// note/chord schema.
func TestPaperOrderingQueries(t *testing.T) {
	db, s := newSession(t)
	chord, notes := setupChords(t, db)
	_ = chord
	_ = notes

	mustExec(t, s, "range of n1, n2 is NOTE\nrange of c1 is CHORD")

	// "Retrieve the notes prior to n in its chord" (n = 3).
	res := mustExec(t, s, `
retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 3`)
	if got := names(res); !equalInts(got, []int64{1, 2}) {
		t.Fatalf("before: %v", got)
	}

	// "Retrieve the notes that follow note n" (n = 3).
	res = mustExec(t, s, `
retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = 3`)
	if got := names(res); !equalInts(got, []int64{4, 5}) {
		t.Fatalf("after: %v", got)
	}

	// "Retrieve the notes under chord c" (c = 1).
	res = mustExec(t, s, `
retrieve (n1.name) where n1 under c1 in note_in_chord and c1.name = 1`)
	if got := names(res); !equalInts(got, []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("under: %v", got)
	}

	// "Retrieve the parent chord of note n" (n = 4).
	res = mustExec(t, s, `
retrieve (c1.name) where n1 under c1 in note_in_chord and n1.name = 4`)
	if got := names(res); !equalInts(got, []int64{1}) {
		t.Fatalf("parent: %v", got)
	}
}

func names(r *Result) []int64 {
	out := make([]int64, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, row[0].AsInt())
	}
	return out
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOrderingInferredWithoutInClause(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	// Only one ordering with NOTE as child exists, so `in` is optional.
	res := mustExec(t, s, `
range of n1, n2 is NOTE
retrieve (n1.name) where n1 before n2 and n2.name = 2`)
	if got := names(res); !equalInts(got, []int64{1}) {
		t.Fatalf("inferred ordering: %v", got)
	}
	// Add a second ordering with NOTE as child → ambiguous.
	if _, err := NewSession(db).Exec(`
define entity STAFF (name = string)
define ordering note_on_staff (NOTE) under STAFF`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`retrieve (n1.name) where n1 before n2 and n2.name = 2`); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguity not reported: %v", err)
	}
}

func TestIncomparableSiblingsFalse(t *testing.T) {
	// §5.6: "If a and b have different parents, then they are not
	// comparable, and the before clause evaluates to false."
	db, s := newSession(t)
	_, _ = setupChords(t, db)
	chord2, _ := db.NewEntity("CHORD", model.Attrs{"name": value.Int(2)})
	other, _ := db.NewEntity("NOTE", model.Attrs{"name": value.Int(99), "pitch": value.Int(72)})
	db.InsertChild("note_in_chord", chord2, other, model.Last())
	res := mustExec(t, s, `
range of n1, n2 is NOTE
retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 99`)
	if len(res.Rows) != 0 {
		t.Fatalf("cross-parent before should be empty: %v", res.Rows)
	}
}

func TestAppendReplaceDelete(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	r := mustExec(t, s, `append to NOTE (name = 10, pitch = 70)`)
	if r.Affected != 1 || db.Count("NOTE") != 6 {
		t.Fatal("append")
	}
	r = mustExec(t, s, `
range of n is NOTE
replace n (pitch = n.pitch + 12) where n.name = 10`)
	if r.Affected != 1 {
		t.Fatal("replace affected")
	}
	res := mustExec(t, s, `retrieve (n.pitch) where n.name = 10`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 82 {
		t.Fatalf("replace value: %v", res.Rows)
	}
	r = mustExec(t, s, `delete n where n.name = 10`)
	if r.Affected != 1 || db.Count("NOTE") != 5 {
		t.Fatal("delete")
	}
	// Delete with no qualification empties the relation (notes are
	// children; detaching is allowed on delete).
	r = mustExec(t, s, `delete n`)
	if r.Affected != 5 || db.Count("NOTE") != 0 {
		t.Fatalf("delete all: %d", r.Affected)
	}
}

func TestRetrieveAllAndUnique(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	res := mustExec(t, s, `range of n is NOTE retrieve (n.all) where n.name = 2`)
	if len(res.Columns) != 2 || res.Columns[0] != "name" || res.Columns[1] != "pitch" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].AsInt() != 61 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// Unique collapses duplicates.
	mustExec(t, s, `append to NOTE (name = 2, pitch = 61)`)
	res = mustExec(t, s, `retrieve (n.pitch) where n.name = 2`)
	if len(res.Rows) != 2 {
		t.Fatal("dup expected")
	}
	res = mustExec(t, s, `retrieve unique (n.pitch) where n.name = 2`)
	if len(res.Rows) != 1 {
		t.Fatalf("unique: %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db) // pitches 60..64
	res := mustExec(t, s, `range of n is NOTE
retrieve (total = count(n.all), hi = max(n.pitch), lo = min(n.pitch),
          mean = avg(n.pitch), s = sum(n.pitch),
          high_count = count(n.all where n.pitch > 62))`)
	row := res.Rows[0]
	if row[0].AsInt() != 5 || row[1].AsInt() != 64 || row[2].AsInt() != 60 {
		t.Fatalf("agg: %v", row)
	}
	if row[3].AsFloat() != 62.0 || row[4].AsInt() != 310 || row[5].AsInt() != 2 {
		t.Fatalf("agg: %v", row)
	}
	if res.Columns[0] != "total" || res.Columns[5] != "high_count" {
		t.Fatalf("labels: %v", res.Columns)
	}
	// any() over empty selection.
	res = mustExec(t, s, `retrieve (e = any(n.all where n.pitch > 100))`)
	if res.Rows[0][0].AsBool() {
		t.Fatal("any should be false")
	}
}

func TestArithmeticAndStrings(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	res := mustExec(t, s, `range of n is NOTE
retrieve (x = n.pitch * 2 - 10, y = -n.name, z = "note " + "two") where n.name = 2`)
	row := res.Rows[0]
	if row[0].AsInt() != 112 || row[1].AsInt() != -2 || row[2].AsString() != "note two" {
		t.Fatalf("arith: %v", row)
	}
	// Division and precedence: 2 + 3 * 4 = 14.
	res = mustExec(t, s, `retrieve (a = 2 + 3 * 4, b = 10 / 4, c = 10.0 / 4) where n.name = 1`)
	row = res.Rows[0]
	if row[0].AsInt() != 14 || row[1].AsInt() != 2 || row[2].AsFloat() != 2.5 {
		t.Fatalf("precedence: %v", row)
	}
	if _, err := s.Exec(`retrieve (a = 1 / 0) where n.name = 1`); err == nil {
		t.Fatal("division by zero accepted")
	}
	if _, err := s.Exec(`retrieve (a = "x" * 2) where n.name = 1`); err == nil {
		t.Fatal("string arithmetic accepted")
	}
}

func TestBooleanLogic(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	res := mustExec(t, s, `range of n is NOTE
retrieve (n.name) where (n.name = 1 or n.name = 3) and not n.pitch = 60`)
	if got := names(res); !equalInts(got, []int64{3}) {
		t.Fatalf("boolean: %v", got)
	}
	res = mustExec(t, s, `retrieve (n.name) where n.name >= 2 and n.name <= 3 or n.name != n.name`)
	if got := names(res); !equalInts(got, []int64{2, 3}) {
		t.Fatalf("precedence or: %v", got)
	}
}

func TestExecErrors(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	for _, src := range []string{
		`range of x is NOPE`,
		`retrieve (q.name)`,                               // undeclared var, no such type
		`retrieve (n.bogus) where n.name = 1`,             // missing attr
		`append to NOPE (a = 1)`,                          // missing type
		`append to NOTE (bogus = 1)`,                      // missing attr
		`retrieve (n.name) where n before 3`,              // non-var operand
		`retrieve (n.name) where n.name is n.name`,        // is on non-refs
		`retrieve (x = sum(n.bogus))`,                     // aggregate missing attr
		`retrieve (n.name) where n before n in wibble`,    // missing ordering
		`range of c is CHORD retrieve (x = count(q.all))`, // agg over unknown var
	} {
		if _, err := s.Exec(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestImplicitRangeVariable(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	// NOTE used directly as a range variable (footnote 6).
	res := mustExec(t, s, `retrieve (NOTE.name) where NOTE.pitch = 62`)
	if got := names(res); !equalInts(got, []int64{3}) {
		t.Fatalf("implicit range var: %v", got)
	}
}

func TestResultString(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	res := mustExec(t, s, `range of n is NOTE retrieve (n.name) where n.name < 3`)
	out := res.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "| 1") {
		t.Fatalf("table rendering:\n%s", out)
	}
	r2 := mustExec(t, s, `append to NOTE (name = 50, pitch = 70)`)
	if r2.String() != "(1 affected)" {
		t.Fatalf("affected rendering: %q", r2.String())
	}
}

func TestReplaceWithJoin(t *testing.T) {
	// Replace driven by a second range variable: transpose every note in
	// the chord that contains note 2.
	db, s := newSession(t)
	setupChords(t, db)
	r := mustExec(t, s, `
range of n, m is NOTE
range of c is CHORD
replace n (pitch = n.pitch + 12)
  where n under c in note_in_chord and m under c in note_in_chord and m.name = 2`)
	if r.Affected != 5 {
		t.Fatalf("affected = %d", r.Affected)
	}
	res := mustExec(t, s, `retrieve (n.pitch) where n.name = 1`)
	if res.Rows[0][0].AsInt() != 72 {
		t.Fatalf("transposed: %v", res.Rows)
	}
}

func BenchmarkRetrieveSarg(b *testing.B) {
	db, s := newSession(b)
	if _, err := NewSession(db).Exec(`
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer)
define ordering note_in_chord (NOTE) under CHORD
`); err != nil {
		b.Fatal(err)
	}
	const n = 2000
	db.NewEntities("NOTE", n, func(i int) model.Attrs {
		return model.Attrs{"name": value.Int(int64(i)), "pitch": value.Int(int64(i % 100))}
	})
	mustExec(b, s, "range of n is NOTE")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(`retrieve (n.name) where n.pitch = 50`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderOpQuery(b *testing.B) {
	db, s := newSession(b)
	if _, err := NewSession(db).Exec(`
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer)
define ordering note_in_chord (NOTE) under CHORD
`); err != nil {
		b.Fatal(err)
	}
	chord, _ := db.NewEntity("CHORD", model.Attrs{"name": value.Int(1)})
	const n = 200
	refs, _ := db.NewEntities("NOTE", n, func(i int) model.Attrs {
		return model.Attrs{"name": value.Int(int64(i)), "pitch": value.Int(60)}
	})
	for _, r := range refs {
		db.InsertChild("note_in_chord", chord, r, model.Last())
	}
	mustExec(b, s, "range of n1, n2 is NOTE")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(`retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 100`); err != nil {
			b.Fatal(err)
		}
	}
}
