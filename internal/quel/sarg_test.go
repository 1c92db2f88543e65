package quel

import (
	"testing"

	"repro/internal/model"
	"repro/internal/value"
)

// TestSargOperators exercises every pushed-down comparison shape,
// including flipped literal-on-left forms.
func TestSargOperators(t *testing.T) {
	db, s := newSession(t)
	if _, err := NewSession(db).Exec(`define entity N (v = integer)`); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		db.NewEntity("N", model.Attrs{"v": value.Int(i)})
	}
	mustExec(t, s, "range of n is N")
	cases := []struct {
		q    string
		want int
	}{
		{`retrieve (n.v) where n.v = 5`, 1},
		{`retrieve (n.v) where n.v != 5`, 9},
		{`retrieve (n.v) where n.v < 3`, 3},
		{`retrieve (n.v) where n.v <= 3`, 4},
		{`retrieve (n.v) where n.v > 7`, 2},
		{`retrieve (n.v) where n.v >= 7`, 3},
		// Literal on the left: the sarg flips.
		{`retrieve (n.v) where 5 = n.v`, 1},
		{`retrieve (n.v) where 3 > n.v`, 3},
		{`retrieve (n.v) where 3 >= n.v`, 4},
		{`retrieve (n.v) where 7 < n.v`, 2},
		{`retrieve (n.v) where 7 <= n.v`, 3},
		{`retrieve (n.v) where 5 != n.v`, 9},
		// Conjunctions push both sides.
		{`retrieve (n.v) where n.v >= 2 and n.v < 5`, 3},
		// Disjunctions cannot push; still correct.
		{`retrieve (n.v) where n.v = 1 or n.v = 8`, 2},
	}
	for _, c := range cases {
		res := mustExec(t, s, c.q)
		if len(res.Rows) != c.want {
			t.Errorf("%s: %d rows want %d", c.q, len(res.Rows), c.want)
		}
	}
}

func TestDefaultLabels(t *testing.T) {
	stmts, err := Parse(`retrieve (n.pitch, count(n.all), sum(n.pitch), n.pitch + 1)`)
	if err != nil {
		t.Fatal(err)
	}
	r := stmts[0].(Retrieve)
	labels := []string{r.Targets[0].Label, r.Targets[1].Label, r.Targets[2].Label, r.Targets[3].Label}
	want := []string{"pitch", "count", "sum_pitch", "expr"}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("label %d: %q want %q", i, labels[i], want[i])
		}
	}
}

func TestTruthiness(t *testing.T) {
	db, s := newSession(t)
	if _, err := NewSession(db).Exec(`define entity N (v = integer, name = string)`); err != nil {
		t.Fatal(err)
	}
	db.NewEntity("N", model.Attrs{"v": value.Int(1), "name": value.Str("x")})
	mustExec(t, s, "range of n is N")
	// An integer where-clause is truthy when non-zero.
	res := mustExec(t, s, `retrieve (n.v) where n.v`)
	if len(res.Rows) != 1 {
		t.Fatal("int truthiness")
	}
	res = mustExec(t, s, `retrieve (n.v) where n.v - 1`)
	if len(res.Rows) != 0 {
		t.Fatal("zero falsy")
	}
	// Strings are truthy (non-null).
	res = mustExec(t, s, `retrieve (n.v) where n.name`)
	if len(res.Rows) != 1 {
		t.Fatal("string truthiness")
	}
	// true/false/null literals.
	res = mustExec(t, s, `retrieve (n.v) where true`)
	if len(res.Rows) != 1 {
		t.Fatal("true literal")
	}
	res = mustExec(t, s, `retrieve (n.v) where false or null`)
	if len(res.Rows) != 0 {
		t.Fatal("false/null literals")
	}
	// not on non-boolean.
	res = mustExec(t, s, `retrieve (n.v) where not 0`)
	if len(res.Rows) != 1 {
		t.Fatal("not 0")
	}
}

func TestNegativeNumbersAndUnaryErrors(t *testing.T) {
	db, s := newSession(t)
	if _, err := NewSession(db).Exec(`define entity N (v = integer)`); err != nil {
		t.Fatal(err)
	}
	db.NewEntity("N", model.Attrs{"v": value.Int(-3)})
	mustExec(t, s, "range of n is N")
	res := mustExec(t, s, `retrieve (x = -n.v, y = -1.5) where n.v = -3`)
	if res.Rows[0][0].AsInt() != 3 || res.Rows[0][1].AsFloat() != -1.5 {
		t.Fatalf("negation: %v", res.Rows)
	}
	if _, err := s.Exec(`retrieve (x = -"str")`); err == nil {
		t.Fatal("negating string accepted")
	}
}

func TestSortBy(t *testing.T) {
	db, s := newSession(t)
	if _, err := NewSession(db).Exec(`define entity W (title = string, year = integer)`); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		title string
		year  int64
	}{{"c", 1721}, {"a", 1709}, {"b", 1709}, {"d", 1750}}
	for _, r := range rows {
		db.NewEntity("W", model.Attrs{"title": value.Str(r.title), "year": value.Int(r.year)})
	}
	mustExec(t, s, "range of w is W")
	res := mustExec(t, s, `retrieve (w.title, w.year) sort by year, title`)
	gotTitles := []string{}
	for _, r := range res.Rows {
		gotTitles = append(gotTitles, r[0].AsString())
	}
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if gotTitles[i] != want[i] {
			t.Fatalf("sort: %v", gotTitles)
		}
	}
	// Descending.
	res = mustExec(t, s, `retrieve (w.title) sort by title desc`)
	if res.Rows[0][0].AsString() != "d" || res.Rows[3][0].AsString() != "a" {
		t.Fatalf("desc sort: %v", res.Rows)
	}
	// asc keyword accepted; missing label errors.
	mustExec(t, s, `retrieve (w.title) sort by title asc`)
	if _, err := s.Exec(`retrieve (w.title) sort by nope`); err == nil {
		t.Fatal("bad sort label accepted")
	}
	if _, err := s.Exec(`retrieve (w.title) sort title`); err == nil {
		t.Fatal("missing by accepted")
	}
	// Sorting after where, with a labelled aggregate column untouched.
	res = mustExec(t, s, `retrieve (w.title, w.year) where w.year >= 1709 sort by year desc, title asc`)
	if res.Rows[0][0].AsString() != "d" {
		t.Fatalf("combined: %v", res.Rows)
	}
}
