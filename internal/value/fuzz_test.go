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
