package value

import (
	"testing"
	"unsafe"
)

// TestRowSize: a row is one string header whatever its width.
func TestRowSize(t *testing.T) {
	if got := unsafe.Sizeof(Row{}); got != 16 {
		t.Fatalf("Row is %d bytes, want 16", got)
	}
}

// TestRowIdentity: a row is Same only as copies of itself.  Equal
// bytes encoded or parsed twice are two rows, a one-byte zero-column
// row included, which a plain string conversion would share.
func TestRowIdentity(t *testing.T) {
	for _, tu := range []Tuple{{}, {Int(1)}, {Str("a"), Int(2)}} {
		a, b := RowOf(tu), RowOf(tu)
		if c := a; !a.Same(c) || a.Same(b) || a.String() != b.String() {
			t.Fatalf("%v: encoded twice: same %v, %s vs %s", tu, a.Same(b), a, b)
		}
		enc := AppendTuple(nil, tu)
		p, n, err := ParseRow(enc)
		q, _, _ := ParseRow(enc)
		if err != nil || n != len(enc) || p.Same(q) || p.String() != tu.String() {
			t.Fatalf("%v: parsed: %v, %d bytes, same %v, %s", tu, err, n, p.Same(q), p)
		}
	}
	if !(Row{}).IsZero() || RowOf(Tuple{}).IsZero() {
		t.Fatal("only the zero Row is zero")
	}
}

// TestRowReadsWithoutAllocating: RowOf is one allocation, and Decode
// into a buffer of enough capacity and Col are none; strings come out
// as substrings of the row.
func TestRowReadsWithoutAllocating(t *testing.T) {
	tu := Tuple{Int(42), Str("Kyrie"), Float(-0.5), Bool(true), Bytes([]byte{0, 1}), RefVal(9), Null}
	if got := testing.AllocsPerRun(100, func() { RowOf(tu) }); got != 1 {
		t.Errorf("RowOf: %v allocations, want 1", got)
	}
	r := RowOf(tu)
	buf := make(Tuple, 0, len(tu))
	if got := testing.AllocsPerRun(100, func() {
		buf = r.Decode(buf)
		_ = r.Col(5)
	}); got != 0 {
		t.Errorf("Decode and Col: %v allocations, want 0", got)
	}
	if !buf.Equal(tu) || !r.Col(1).Equal(tu[1]) {
		t.Fatalf("row reads %v, want %v", buf, tu)
	}
	if s := buf[1].AsString(); !containsData(r.s, s) {
		t.Fatalf("decoded string %q is a copy, not part of the row", s)
	}
}

// containsData reports whether s's bytes lie inside row's.
func containsData(row, s string) bool {
	lo, p := uintptr(unsafe.Pointer(unsafe.StringData(row))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(row))
}

// TestValidRow: AppendValidRow encodes exactly the tuple Validate
// returns, after what dst held, and fails as Validate does, leaving dst
// as it was.
func TestValidRow(t *testing.T) {
	s := NewSchema(Field{Name: "n", Kind: KindInt}, Field{Name: "f", Kind: KindFloat}, Field{Name: "r", Kind: KindRef})
	for _, tu := range []Tuple{
		{Int(1), Int(2), Int(3)},
		{Null, Float(2.5), RefVal(4)},
		{Float(3), Float(1), Int(5)},
		{Int(1), Int(2)},
		{Str("x"), Float(1), RefVal(1)},
		{Float(1.5), Float(1), RefVal(1)},
	} {
		want, werr := tu.Validate(s)
		got, gerr := tu.AppendValidRow([]byte("pre"), s)
		switch {
		case (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error():
			t.Fatalf("%v: Validate err %v, AppendValidRow err %v", tu, werr, gerr)
		case werr != nil && string(got) != "pre":
			t.Fatalf("%v: failed AppendValidRow returned %q, want dst", tu, got)
		case werr == nil && string(got) != "pre"+string(AppendTuple(nil, want)):
			t.Fatalf("%v: AppendValidRow %q, Validate %v", tu, got, want)
		}
	}
}

// noteRow is a stored note as the score workloads hold it: seven
// columns, small integers and a short string.
func noteRow() Row {
	return RowOf(Tuple{RefVal(70123), RefVal(412), Int(3), Int(64), Int(480), Str("q"), Int(1)})
}

var (
	sinkValue Value
	sinkTuple Tuple
)

func BenchmarkRowCol(b *testing.B) {
	r := noteRow()
	for i := 0; i < b.N; i++ {
		sinkValue = r.Col(2)
	}
}

func BenchmarkRowDecode(b *testing.B) {
	r := noteRow()
	buf := make(Tuple, 0, 8)
	for i := 0; i < b.N; i++ {
		buf = r.Decode(buf)
	}
	sinkTuple = buf
}
