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
// A Row is well formed by construction — RowOf encodes it and ParseRow
// validates it — so its readers never fail.  Decode reads it into a
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
	n, hn := uvarint(buf, 0)
	if hn <= 0 || overlong(buf, hn) {
		return Row{}, 0, fmt.Errorf("value: decode tuple: bad field count")
	}
	if n > uint64(len(buf)-hn) {
		return Row{}, 0, fmt.Errorf("value: decode tuple: implausible field count %d", n)
	}
	pos := hn
	for i := uint64(0); i < n; i++ {
		vn, err := skip(buf[pos:])
		if err != nil {
			return Row{}, 0, fmt.Errorf("value: decode tuple field %d: %w", i, err)
		}
		pos += vn
	}
	return Row{own(buf[:pos])}, pos, nil
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

// IsZero reports whether r is the zero Row, which holds no tuple.
func (r Row) IsZero() bool { return r.s == "" }

// Same reports whether r and o are one row: the same bytes in memory,
// not merely equal ones.  RowOf and ParseRow never share bytes between
// rows, so only copies of one Row value are Same.
func (r Row) Same(o Row) bool {
	return len(r.s) == len(o.s) && unsafe.StringData(r.s) == unsafe.StringData(o.s)
}

// AppendTo appends the row's encoding — AppendTuple's bytes for the
// tuple it holds — to dst.
func (r Row) AppendTo(dst []byte) []byte { return append(dst, r.s...) }

// Col returns column i, which the row must have.  It walks the columns
// before it, so reading a few leading columns is cheap and reading
// every column is Decode's job.
func (r Row) Col(i int) Value {
	_, pos := uvarint(r.s, 0)
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
	n, pos := uvarint(r.s, 0)
	dst = dst[:0]
	if cap(dst) < int(n) {
		dst = make(Tuple, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var v Value
		v, pos = r.at(pos)
		dst = append(dst, v)
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
		u, n := uvarint(r.s, pos)
		i := int64(u >> 1)
		if u&1 != 0 {
			i = ^i
		}
		return Value{kind: k, i: i}, pos + n
	case KindFloat:
		var u uint64
		for j := pos; j < pos+8; j++ {
			u = u<<8 | uint64(r.s[j])
		}
		return Value{kind: k, i: int64(u)}, pos + 8
	case KindString, KindBytes:
		ln, n := uvarint(r.s, pos)
		pos += n
		return Value{kind: k, s: r.s[pos : pos+int(ln)]}, pos + int(ln)
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
		ln, n := uvarint(r.s, pos)
		return pos + n + int(ln)
	}
	return pos
}
