package value

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeTuple asserts DecodeTuple never panics on arbitrary bytes
// and fails closed: a tuple it accepts re-encodes to exactly the bytes
// it consumed.
func FuzzDecodeTuple(f *testing.F) {
	for _, t := range []Tuple{
		{},
		{Null},
		{Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64)},
		{Float(0), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.NaN()), Float(-2.5)},
		{Str(""), Str("Ode to Joy"), Str("\xff\x00")},
		{Bool(true), Bool(false)},
		{Bytes(nil), Bytes([]byte{0, 1, 2, 0xff})},
		{RefVal(0), RefVal(1 << 40), RefVal(math.MaxUint64)},
		{Int(7), Null, Str("mixed"), Float(1.5), Bool(true), Bytes([]byte("b")), RefVal(3)},
	} {
		enc := AppendTuple(nil, t)
		f.Add(enc)
		f.Add(append(enc, 0xAA)) // trailing bytes stay unconsumed
		if len(enc) > 1 {
			f.Add(enc[:len(enc)-1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tu, n, err := DecodeTuple(data)
		if err != nil {
			return
		}
		if n < 1 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if re := AppendTuple(nil, tu); !bytes.Equal(re, data[:n]) {
			t.Fatalf("decoded %v from %x, re-encodes to %x", tu, data[:n], re)
		}
	})
}

// fuzzValue builds a value of kind k%7 from the fuzzer's scalars: the
// int for integers, booleans (its low bit) and refs, the bits for
// floats, the bytes for strings and bytes values.
func fuzzValue(k uint8, i int64, bits uint64, b []byte) Value {
	switch k % 7 {
	case 0:
		return Null
	case 1:
		return Int(i)
	case 2:
		return Float(math.Float64frombits(bits))
	case 3:
		return Str(string(b))
	case 4:
		return Bool(i&1 == 1)
	case 5:
		return Bytes(b)
	}
	return RefVal(Ref(i))
}

// FuzzKeyOrder asserts the key encoding's contract: for two values of
// comparable kinds (the same kind, or both numeric), bytes.Compare of
// their keys has the sign of Compare.  An integer and a float that
// Compare calls equal may encode apart (the integer's exact tiebreaker),
// so the order among such a pair is free.
func FuzzKeyOrder(f *testing.F) {
	const p53 = 1 << 53
	nan, negZero := math.Float64bits(math.NaN()), math.Float64bits(math.Copysign(0, -1))
	for _, s := range []struct {
		ka uint8
		ia int64
		fa uint64
		sa string
		kb uint8
		ib int64
		fb uint64
		sb string
	}{
		{1, p53, 0, "", 1, p53 + 1, 0, ""},
		{1, p53 + 1, 0, "", 2, 0, math.Float64bits(p53), ""},
		{1, -p53 - 1, 0, "", 2, 0, math.Float64bits(-p53 - 2), ""},
		{1, math.MaxInt64, 0, "", 2, 0, math.Float64bits(math.MaxInt64), ""},
		{1, math.MinInt64, 0, "", 1, math.MinInt64 + 1, 0, ""},
		{2, 0, nan, "", 2, 0, 0x7FF8_0000_0000_0001, ""},
		{2, 0, nan, "", 1, math.MinInt64, 0, ""},
		{2, 0, negZero, "", 2, 0, 0, ""},
		{2, 0, negZero, "", 1, 0, 0, ""},
		{2, 0, 1, "", 2, 0, 0x8000_0000_0000_0001, ""},
		{2, 0, math.Float64bits(math.Inf(-1)), "", 2, 0, nan, ""},
		{3, 0, 0, "a\x00b", 3, 0, 0, "a\x00"},
		{3, 0, 0, "a", 3, 0, 0, "a\x00"},
		{5, 0, 0, "\x00\xff", 5, 0, 0, "\x00"},
		{5, 0, 0, "", 5, 0, 0, "\x00"},
		{4, 0, 0, "", 4, 1, 0, ""},
		{6, -1, 0, "", 6, 1, 0, ""},
		{0, 0, 0, "", 0, 0, 0, ""},
	} {
		f.Add(s.ka, s.ia, s.fa, []byte(s.sa), s.kb, s.ib, s.fb, []byte(s.sb))
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa uint64, sa []byte, kb uint8, ib int64, fb uint64, sb []byte) {
		a, b := fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb)
		if a.Kind() != b.Kind() && !(numeric(a.Kind()) && numeric(b.Kind())) {
			return
		}
		want := Compare(a, b)
		if a.Kind() != b.Kind() && want == 0 {
			return
		}
		if got := sign(bytes.Compare(AppendKey(nil, a), AppendKey(nil, b))); got != want {
			t.Fatalf("key order of %v %v (%x) vs %v %v (%x) = %d, Compare = %d",
				a.Kind(), a, AppendKey(nil, a), b.Kind(), b, AppendKey(nil, b), got, want)
		}
	})
}
