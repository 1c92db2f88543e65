package value

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickValue generates an arbitrary Value for property tests.
func quickValue(r *rand.Rand) Value {
	switch r.Intn(7) {
	case 0:
		return Null
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Float(math.Float64frombits(r.Uint64()))
	case 3:
		n := r.Intn(20)
		b := make([]byte, n)
		r.Read(b)
		return Str(string(b))
	case 4:
		return Bool(r.Intn(2) == 0)
	case 5:
		n := r.Intn(20)
		b := make([]byte, n)
		r.Read(b)
		return Bytes(b)
	default:
		return RefVal(Ref(r.Uint64()))
	}
}

// qv wraps Value to implement quick.Generator.
type qv struct{ V Value }

func (qv) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(qv{quickValue(r)})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(x qv) bool {
		if math.IsNaN(x.V.AsFloat()) && x.V.Kind() == KindFloat {
			// NaN round-trips bit-exactly; Equal uses total order so OK.
		}
		enc := Append(nil, x.V)
		got, n, err := Decode(enc)
		return err == nil && n == len(enc) && Compare(got, x.V) == 0 && got.Kind() == x.V.Kind()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty buffer should error")
	}
	if _, _, err := Decode([]byte{byte(KindFloat), 1, 2}); err == nil {
		t.Error("short float should error")
	}
	if _, _, err := Decode([]byte{byte(KindString), 10, 'a'}); err == nil {
		t.Error("short string should error")
	}
	if _, _, err := Decode([]byte{200}); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestTupleRoundTrip(t *testing.T) {
	prop := func(a, b, c qv) bool {
		in := Tuple{a.V, b.V, c.V}
		enc := AppendTuple(nil, in)
		got, n, err := DecodeTuple(enc)
		if err != nil || n != len(enc) || len(got) != 3 {
			return false
		}
		for i := range in {
			if Compare(got[i], in[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, _, err := DecodeTuple(nil); err == nil {
		t.Error("empty should error")
	}
	// Field count says 2 but only one valid field present.
	enc := AppendTuple(nil, Tuple{Int(1), Int(2)})
	if _, _, err := DecodeTuple(enc[:len(enc)-1]); err == nil {
		t.Error("truncated tuple should error")
	}
}

// TestKeyOrderPreserving is the core property of the key encoding: byte
// comparison of encoded keys must agree with Compare for comparable kinds.
func TestKeyOrderPreserving(t *testing.T) {
	prop := func(a, b qv) bool {
		x, y := a.V, b.V
		// Restrict to comparable pairs: same kind, or both numeric.
		numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
		if x.Kind() != y.Kind() && !(numeric(x.Kind()) && numeric(y.Kind())) {
			return true
		}
		// Mixed int/float with equal numeric value encode differently;
		// skip exact ties across kinds (order among equals is free).
		if x.Kind() != y.Kind() && Compare(x, y) == 0 {
			return true
		}
		ka := AppendKey(nil, x)
		kb := AppendKey(nil, y)
		cv := Compare(x, y)
		bc := bytes.Compare(ka, kb)
		if cv == 0 {
			return bc == 0
		}
		return sign(bc) == sign(cv)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestKeyOrderFloatSpecials pins the key order of the float values the
// random generator almost never pairs up: every NaN payload and sign
// encodes alike and below -Inf, and -0 encodes as +0 — exactly where
// Compare puts them.
func TestKeyOrderFloatSpecials(t *testing.T) {
	ascending := [][]Value{
		{Float(math.NaN()), Float(math.Float64frombits(0x7FF8_0000_0000_0001)), Float(math.Float64frombits(0xFFF8_0000_0000_0000)), Float(math.Float64frombits(0x7FF0_0000_0000_0001))},
		{Float(math.Inf(-1))},
		{Float(-math.MaxFloat64)},
		{Float(-math.SmallestNonzeroFloat64)},
		{Float(math.Copysign(0, -1)), Float(0)},
		{Float(math.SmallestNonzeroFloat64)},
		{Float(math.MaxFloat64)},
		{Float(math.Inf(1))},
	}
	for i, class := range ascending {
		for _, x := range class {
			for j, other := range ascending {
				for _, y := range other {
					want := sign(i - j)
					if got := Compare(x, y); got != want {
						t.Errorf("Compare(%v, %v) = %d, want %d", x, y, got, want)
					}
					if got := bytes.Compare(AppendKey(nil, x), AppendKey(nil, y)); got != want {
						t.Errorf("key order of %v (%x) vs %v (%x) = %d, want %d",
							x, AppendKey(nil, x), y, AppendKey(nil, y), got, want)
					}
				}
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestKeyStringEmbeddedZeros(t *testing.T) {
	a := Str("a\x00b")
	b := Str("a\x00")
	c := Str("a")
	ka, kb, kc := AppendKey(nil, a), AppendKey(nil, b), AppendKey(nil, c)
	if !(bytes.Compare(kc, kb) < 0 && bytes.Compare(kb, ka) < 0) {
		t.Errorf("prefix ordering violated: %x %x %x", kc, kb, ka)
	}
}

func TestKeyTupleComposite(t *testing.T) {
	a := AppendKeyTuple(nil, Tuple{Str("bach"), Int(578)})
	b := AppendKeyTuple(nil, Tuple{Str("bach"), Int(579)})
	c := AppendKeyTuple(nil, Tuple{Str("beethoven"), Int(1)})
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Error("composite key ordering violated")
	}
}

func TestKeyLargeIntPrecision(t *testing.T) {
	// Two large ints that collapse to the same float64 must still order
	// correctly via the exact tiebreaker.
	a := Int(1 << 62)
	b := Int(1<<62 + 1)
	ka, kb := AppendKey(nil, a), AppendKey(nil, b)
	if bytes.Compare(ka, kb) >= 0 {
		t.Error("large int tiebreaker failed")
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(Field{Name: "title", Kind: KindString}, Field{Name: "year", Kind: KindInt})
	if s.Len() != 2 {
		t.Fatal("len")
	}
	if i, ok := s.Index("TITLE"); !ok || i != 0 {
		t.Error("case-insensitive index")
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("missing field found")
	}
	if got := s.String(); got != "(title = string, year = integer)" {
		t.Errorf("String = %q", got)
	}
	ext := s.Extend(Field{Name: "bwv", Kind: KindInt})
	if ext.Len() != 3 || s.Len() != 2 {
		t.Error("Extend should not mutate")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate field should panic")
		}
	}()
	NewSchema(Field{Name: "a", Kind: KindInt}, Field{Name: "A", Kind: KindInt})
}

func TestTupleValidate(t *testing.T) {
	s := NewSchema(Field{Name: "title", Kind: KindString}, Field{Name: "year", Kind: KindInt})
	got, err := Tuple{Str("Fuge"), Float(1709)}.Validate(s)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Kind() != KindInt || got[1].AsInt() != 1709 {
		t.Error("coercion in Validate")
	}
	if _, err := (Tuple{Str("x")}).Validate(s); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := (Tuple{Int(1), Int(2)}).Validate(s); err == nil {
		t.Error("kind mismatch should error")
	}
}

func TestTupleCloneEqualString(t *testing.T) {
	a := Tuple{Int(1), Str("x")}
	b := a.Clone()
	b[0] = Int(2)
	if a[0].AsInt() != 1 {
		t.Error("Clone aliases")
	}
	if a.Equal(b) {
		t.Error("Equal false negative expected")
	}
	if !a.Equal(Tuple{Int(1), Str("x")}) {
		t.Error("Equal")
	}
	if a.Equal(Tuple{Int(1)}) {
		t.Error("Equal arity")
	}
	if got := a.String(); got != `(1, "x")` {
		t.Errorf("String = %q", got)
	}
}
