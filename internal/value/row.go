package value

import (
	"fmt"
	"unsafe"
)

// Row is one stored tuple held as its storage encoding: exactly the
// bytes AppendTuple writes, in an immutable string.  A Row is 16 bytes
// however wide the tuple, and its columns cost their encoded size
// (one to three bytes for most integers) instead of a Value each.
//
// A Row is well formed by construction — RowOf encodes it, ParseRow
// validates it, and RowIn takes bytes one of the two has vouched for —
// so its readers never fail.  Decode reads it into a
// tuple the caller owns and reuses; string and bytes values come out
// as substrings of the row, with no copy, which is safe because the
// row never changes.  The zero Row holds no tuple.
type Row struct{ s string }

// RowOf encodes t as a Row.  The row is one allocation of its encoded
// size, never shared with another row (see Same).
func RowOf(t Tuple) Row {
	var b [128]byte
	return Row{own(AppendTuple(b[:0], t))}
}

// ParseRow validates the encoded tuple at the front of buf and returns
// it as a Row holding a copy of its bytes, with the number of bytes
// consumed.  It rejects every encoding AppendTuple never writes (an
// overlong varint, a short payload, an unknown kind), so a Row re-encodes
// to the bytes it was read from.  DecodeTuple is ParseRow and Tuple.
func ParseRow(buf []byte) (Row, int, error) {
	n, err := SkipTuple(buf)
	if err != nil {
		return Row{}, 0, err
	}
	return Row{own(buf[:n])}, n, nil
}

// RowIn returns the encoded tuple b as a Row over b's own bytes, with
// no copy.  b must hold exactly one tuple as AppendTuple writes it (or
// as SkipTuple has validated it), and no one may write b's bytes again:
// the storage engine hands out rows over its append-only page blocks
// this way.  A Row over the copy of a row holds the same tuple and is
// not Same as the row.
func RowIn(b []byte) Row { return Row{unsafe.String(unsafe.SliceData(b), len(b))} }

// SkipTuple validates the encoded tuple at the front of buf as ParseRow
// does and returns its length, building nothing.
func SkipTuple(buf []byte) (int, error) {
	n, hn := uvarint(buf, 0)
	if hn <= 0 || overlong(buf, hn) {
		return 0, fmt.Errorf("value: decode tuple: bad field count")
	}
	if n > uint64(len(buf)-hn) {
		return 0, fmt.Errorf("value: decode tuple: implausible field count %d", n)
	}
	pos := hn
	for i := uint64(0); i < n; i++ {
		vn, err := skip(buf[pos:])
		if err != nil {
			return 0, fmt.Errorf("value: decode tuple field %d: %w", i, err)
		}
		pos += vn
	}
	return pos, nil
}

// own returns a copy of b as a string of its own: a fresh allocation
// even for one byte, which a plain conversion may share.
func own(b []byte) string {
	c := make([]byte, len(b))
	copy(c, b)
	return unsafe.String(unsafe.SliceData(c), len(c))
}

// skip validates the encoded value at the front of buf, as Decode
// does, and returns its length.
func skip(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("value: decode: empty buffer")
	}
	switch Kind(buf[0]) {
	case KindNull:
		return 1, nil
	case KindInt, KindBool, KindRef:
		_, n := uvarint(buf, 1)
		if n <= 0 || overlong(buf[1:], n) {
			return 0, fmt.Errorf("value: decode: bad varint")
		}
		return 1 + n, nil
	case KindFloat:
		if len(buf) < 9 {
			return 0, fmt.Errorf("value: decode: short float")
		}
		return 9, nil
	case KindString, KindBytes:
		ln, n := uvarint(buf, 1)
		if n <= 0 || overlong(buf[1:], n) {
			return 0, fmt.Errorf("value: decode: bad length")
		}
		if uint64(len(buf)-1-n) < ln {
			return 0, fmt.Errorf("value: decode: short payload (want %d, have %d)", ln, len(buf)-1-n)
		}
		return 1 + n + int(ln), nil
	}
	return 0, fmt.Errorf("value: decode: unknown kind tag %d", buf[0])
}

// uvarint reads the unsigned varint at buf[pos:] as binary.Uvarint
// does: n is its length, 0 if buf ends first, negative on overflow.
func uvarint[B ~string | ~[]byte](buf B, pos int) (x uint64, n int) {
	var s uint
	for i := pos; i < len(buf); i++ {
		c := buf[i]
		if i-pos == binaryMaxVarintLen64 {
			return 0, -(i - pos + 1)
		}
		if c < 0x80 {
			if i-pos == binaryMaxVarintLen64-1 && c > 1 {
				return 0, -(i - pos + 1)
			}
			return x | uint64(c)<<s, i - pos + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

const binaryMaxVarintLen64 = 10

// uvLong reads the varint of two bytes or more at pos of the row, which
// is well formed, and returns it with the offset after it.  Readers
// decide the one-byte case (field counts, most lengths and small
// integers) inline and call it, kept out of line so they stay small,
// for the rest:
//
//	x, end := uint64(r.s[pos]), pos+1
//	if x >= 0x80 {
//		x, end = r.uvLong(pos)
//	}
//
//go:noinline
func (r Row) uvLong(pos int) (uint64, int) {
	x, n := uvarint(r.s, pos)
	return x, pos + n
}

// IsZero reports whether r is the zero Row, which holds no tuple.
func (r Row) IsZero() bool { return r.s == "" }

// Same reports whether r and o are one row: the same bytes in memory,
// not merely equal ones.  RowOf and ParseRow never share bytes between
// rows, nor does a page block, so only copies of one Row value are Same.
func (r Row) Same(o Row) bool {
	return len(r.s) == len(o.s) && unsafe.StringData(r.s) == unsafe.StringData(o.s)
}

// Equal reports whether r and o hold the same encoded tuple, in the
// same bytes or in a copy.
func (r Row) Equal(o Row) bool { return r.s == o.s }

// Len returns the length of the row's encoding, 0 for the zero Row.
func (r Row) Len() int { return len(r.s) }

// AppendTo appends the row's encoding — AppendTuple's bytes for the
// tuple it holds — to dst.
func (r Row) AppendTo(dst []byte) []byte { return append(dst, r.s...) }

// Col returns column i, which the row must have.  It walks the columns
// before it, so reading a few leading columns is cheap and reading
// every column is Decode's job.
func (r Row) Col(i int) Value {
	pos := 1
	if r.s[0] >= 0x80 {
		_, pos = r.uvLong(0)
	}
	for ; i > 0; i-- {
		pos = r.next(pos)
	}
	v, _ := r.at(pos)
	return v
}

// Decode decodes the row into dst[:0], growing it only when its
// capacity is short, and returns the tuple.  String and bytes values
// are substrings of the row.  A caller that reuses dst across rows
// reads without allocating.
func (r Row) Decode(dst Tuple) Tuple {
	if r.IsZero() {
		return dst[:0]
	}
	n, pos := uint64(r.s[0]), 1
	if n >= 0x80 {
		n, pos = r.uvLong(0)
	}
	if cap(dst) < int(n) {
		dst = make(Tuple, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i], pos = r.at(pos)
	}
	return dst
}

// Tuple returns the row decoded into a tuple of its own.
func (r Row) Tuple() Tuple {
	if r.IsZero() {
		return nil
	}
	return r.Decode(nil)
}

// String renders the row's tuple for display.
func (r Row) String() string { return r.Tuple().String() }

// at decodes the value at byte offset pos, returning it and the offset
// after it.
func (r Row) at(pos int) (Value, int) {
	k := Kind(r.s[pos])
	pos++
	switch k {
	case KindInt, KindBool, KindRef:
		u, end := uint64(r.s[pos]), pos+1
		if u >= 0x80 {
			u, end = r.uvLong(pos)
		}
		i := int64(u >> 1)
		if u&1 != 0 {
			i = ^i
		}
		return Value{kind: k, i: i}, end
	case KindFloat:
		var u uint64
		for j := pos; j < pos+8; j++ {
			u = u<<8 | uint64(r.s[j])
		}
		return Value{kind: k, i: int64(u)}, pos + 8
	case KindString, KindBytes:
		ln, end := uint64(r.s[pos]), pos+1
		if ln >= 0x80 {
			ln, end = r.uvLong(pos)
		}
		return Value{kind: k, s: r.s[end : end+int(ln)]}, end + int(ln)
	}
	return Null, pos
}

// next returns the offset after the value at pos.
func (r Row) next(pos int) int {
	k := Kind(r.s[pos])
	pos++
	switch k {
	case KindInt, KindBool, KindRef:
		for r.s[pos] >= 0x80 {
			pos++
		}
		return pos + 1
	case KindFloat:
		return pos + 8
	case KindString, KindBytes:
		ln, end := uint64(r.s[pos]), pos+1
		if ln >= 0x80 {
			ln, end = r.uvLong(pos)
		}
		return end + int(ln)
	}
	return pos
}
