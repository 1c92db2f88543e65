package value

import (
	"encoding/binary"
	"math"
)

// Binary encoding of values and tuples.
//
// Two encodings are provided:
//
//   - The *storage* encoding (Append/Decode) is a compact self-describing
//     format used on pages and in the write-ahead log: a one-byte kind tag
//     followed by a fixed or length-prefixed payload.
//
//   - The *key* encoding (AppendKey) is an order-preserving format whose
//     byte-wise comparison agrees with Compare.  It is used by B-tree
//     indexes so that sorted scans deliver tuples in value order — the
//     relational "ordering as performance optimization" of §5.2.

// Append appends the storage encoding of v to dst and returns the
// extended slice.
func Append(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindBool, KindRef:
		dst = binary.AppendVarint(dst, v.i)
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case KindString, KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// Decode decodes one value from the front of buf, returning the value and
// the number of bytes consumed.  A string or bytes value holds a copy of
// its payload.
func Decode(buf []byte) (Value, int, error) {
	n, err := skip(buf)
	if err != nil {
		return Null, 0, err
	}
	v, _ := Row{own(buf[:n])}.at(0)
	return v, n, nil
}

// overlong reports whether the n-byte varint at the front of buf has a
// zero final group: a padded encoding that Append never writes, and
// that would not re-encode to the bytes it was read from.
func overlong(buf []byte, n int) bool { return n > 1 && buf[n-1] == 0 }

// AppendTuple appends the storage encoding of a tuple: a uvarint field
// count followed by each value.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = Append(dst, v)
	}
	return dst
}

// DecodeTuple decodes one tuple from the front of buf, returning the tuple
// and the number of bytes consumed.  Its string and bytes values share
// one copy of the tuple's bytes.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	r, n, err := ParseRow(buf)
	if err != nil {
		return nil, 0, err
	}
	return r.Tuple(), n, nil
}

// Key-encoding tags.  Tags are chosen so that byte comparison of encoded
// keys matches Compare's kind ordering for incomparable kinds.
const (
	keyNull   = 0x00
	keyNumber = 0x10 // ints and floats share a numeric tag space
	keyString = 0x20
	keyBool   = 0x18
	keyBytes  = 0x28
	keyRef    = 0x30
)

// AppendKey appends an order-preserving encoding of v to dst.  For all
// values a, b: bytes.Compare(AppendKey(nil,a), AppendKey(nil,b)) has the
// same sign as Compare(a, b), provided a and b are of comparable kinds
// (numeric kinds compare with each other; otherwise same kind).
func AppendKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, keyNull)
	case KindInt:
		dst = append(dst, keyNumber)
		return appendKeyFloat(dst, float64(v.i), v.i)
	case KindFloat:
		return appendKeyFloat(append(dst, keyNumber), v.float(), 0)
	case KindBool:
		dst = append(dst, keyBool)
		return append(dst, byte(v.i))
	case KindString:
		return appendKeyBytes(append(dst, keyString), v.s)
	case KindBytes:
		return appendKeyBytes(append(dst, keyBytes), v.s)
	case KindRef:
		dst = append(dst, keyRef)
		return binary.BigEndian.AppendUint64(dst, uint64(v.i))
	}
	return dst
}

// KeyRef decodes a key that AppendKey produced from a reference value,
// or the leading reference of a composite key; ok is false for any
// other key.
func KeyRef(key []byte) (Ref, bool) {
	if len(key) < 9 || key[0] != keyRef {
		return 0, false
	}
	return Ref(binary.BigEndian.Uint64(key[1:9])), true
}

// appendKeyFloat encodes a float so byte order matches Compare's order:
// flip the sign bit for non-negatives, flip all bits for negatives.
// Compare places every NaN below every number and equal to every other
// NaN, and -0 equal to +0, so all NaN payloads share the one encoding
// below -Inf's (which flips to 0x000F…FF, leaving all-zero unused) and
// -0 encodes as +0.  For integers beyond float precision the exact
// int64 is appended as a tiebreaker (monotone within equal float
// prefixes).
func appendKeyFloat(dst []byte, f float64, exact int64) []byte {
	var bits uint64
	switch {
	case math.IsNaN(f): // bits stays 0
	case f == 0:
		bits = 1 << 63
	case f < 0:
		bits = ^math.Float64bits(f)
	default:
		bits = math.Float64bits(f) | 1<<63
	}
	dst = binary.BigEndian.AppendUint64(dst, bits)
	return binary.BigEndian.AppendUint64(dst, uint64(exact)^(1<<63))
}

// appendKeyBytes encodes bytes with 0x00 escaping and a 0x00 0x01
// terminator so that prefixes sort before extensions and embedded zero
// bytes do not confuse ordering.
func appendKeyBytes(dst []byte, b string) []byte {
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// AppendKeyTuple appends the order-preserving encoding of each value in
// the tuple, producing a composite key.
func AppendKeyTuple(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = AppendKey(dst, v)
	}
	return dst
}
