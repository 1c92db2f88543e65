// Package value defines the typed values, tuples, and schemas shared by
// every layer of the music data manager.
//
// The entity-relationship layer of the MDM stores entity instances as
// tuples of typed attribute values.  This package is the common currency
// between the storage engine, the query executor, and the data model: a
// Value is a single typed datum, a Tuple is an ordered sequence of values
// conforming to a Schema, and both have a compact, self-describing binary
// encoding used by the page format and the write-ahead log.
//
// A Value is 32 bytes on 64-bit platforms: a kind tag, one int64 and one
// string header.  Integers, booleans and references sit in the int64,
// and so does a float, as its IEEE-754 bits (every NaN payload and the
// sign of zero survive a round trip).  Strings and raw bytes share the
// string: a bytes value holds its content as an immutable string, so
// Bytes copies its argument once and AsBytes returns a fresh copy.
//
// A stored row is not a Tuple but a Row: one immutable string holding
// the row's storage encoding, 16 bytes plus the encoded size, which is
// what the engine keeps resident for every row.  The aliasing rule:
// a Row never changes, so anyone may keep it, copy it, and read it
// from any goroutine.  Readers decode it into a Tuple they own and
// reuse (Row.Decode); its string and bytes values are substrings of
// the row and may be kept as well, but a Tuple decoded into a reused
// buffer is the reader's alone and holds only until its next decode —
// whoever keeps a row past its read keeps the Row, or a Tuple of its
// own (Row.Tuple).
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the attribute types supported by the data model.
// The paper's DDL (§5.1) uses integer and string attributes; the
// implementation additionally supports floats, booleans, raw bytes
// (digitized sound, §4.1), and entity references (the implicit "1 to n"
// relationship representation of §5.1).
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindBytes
	KindRef // a surrogate reference to another entity instance
)

// String returns the DDL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "boolean"
	case KindBytes:
		return "bytes"
	case KindRef:
		return "ref"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromName maps a DDL type name to a Kind.  It accepts the names the
// paper uses in define entity statements ("integer", "string") and this
// implementation's extensions.
func KindFromName(name string) (Kind, bool) {
	switch strings.ToLower(name) {
	case "integer", "int", "i4":
		return KindInt, true
	case "float", "f8", "real":
		return KindFloat, true
	case "string", "text", "c", "char":
		return KindString, true
	case "boolean", "bool":
		return KindBool, true
	case "bytes", "blob":
		return KindBytes, true
	case "ref", "entity":
		return KindRef, true
	}
	return KindNull, false
}

// Ref is a surrogate identifier for an entity instance.  Surrogates are
// allocated by the model layer and are unique across the whole database
// (RM/T-style), so a Ref alone identifies both the entity type and the
// instance.
type Ref uint64

// NilRef is the zero Ref, referring to no entity.
const NilRef Ref = 0

// Value is a single typed datum.  The zero Value is null.
//
// Value is a compact tagged union rather than an interface so that tuples
// can be manipulated without per-datum heap allocation in the executor's
// inner loops.
type Value struct {
	kind Kind
	i    int64  // int, bool (0/1), ref, float bits
	s    string // string, bytes
}

// Null is the null value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// String_ returns a string value.  (Named with a trailing underscore to
// avoid colliding with the fmt.Stringer method on Value.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Str is a short alias for String_.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Bytes returns a raw-bytes value holding a copy of v: the caller may
// reuse v afterwards.
func Bytes(v []byte) Value { return Value{kind: KindBytes, s: string(v)} }

// RefVal returns an entity-reference value.
func RefVal(r Ref) Value { return Value{kind: KindRef, i: int64(r)} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer content.  It is valid only for KindInt values
// (and returns the raw representation for KindBool and KindRef).
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the float content, converting integers.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.float()
}

// float returns the float content of a KindFloat value.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// AsString returns the string content.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean content.
func (v Value) AsBool() bool { return v.i != 0 }

// AsBytes returns a copy of the byte content.
func (v Value) AsBytes() []byte { return []byte(v.s) }

// AsRef returns the entity-reference content.
func (v Value) AsRef() Ref { return Ref(v.i) }

// String renders the value for display and query results.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.s))
	case KindRef:
		return fmt.Sprintf("@%d", v.i)
	}
	return "?"
}

// Quoted renders the value as a QUEL literal (strings quoted).
func (v Value) Quoted() string {
	if v.kind == KindString {
		return strconv.Quote(v.s)
	}
	return v.String()
}

// Equal reports deep equality of two values.  Values of different kinds
// are unequal except that integer and float values compare numerically.
func (v Value) Equal(o Value) bool { return Compare(v, o) == 0 }

// Compare orders two values.  It returns -1, 0, or +1.  Nulls sort first;
// values of incomparable kinds order by kind tag so that Compare is a
// total order usable as a sort key.
func Compare(a, b Value) int {
	ak, bk := a.kind, b.kind
	// Numeric cross-kind comparison.
	if (ak == KindInt || ak == KindFloat) && (bk == KindInt || bk == KindFloat) {
		if ak == KindInt && bk == KindInt {
			return cmpInt(a.i, b.i)
		}
		return cmpFloat(a.AsFloat(), b.AsFloat())
	}
	if ak != bk {
		return cmpInt(int64(ak), int64(bk))
	}
	switch ak {
	case KindNull:
		return 0
	case KindInt, KindBool:
		return cmpInt(a.i, b.i)
	case KindRef:
		// Refs are unsigned surrogates; compare as uint64 to match the
		// big-endian key encoding.
		switch au, bu := uint64(a.i), uint64(b.i); {
		case au < bu:
			return -1
		case au > bu:
			return 1
		}
		return 0
	case KindFloat:
		return cmpFloat(a.float(), b.float())
	case KindString, KindBytes:
		return strings.Compare(a.s, b.s)
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	}
	return 0
}

// Coerce converts v to the target kind if a lossless, conventional
// conversion exists (int↔float, int→ref, anything→null is not allowed).
// It reports whether the conversion succeeded.
func Coerce(v Value, to Kind) (Value, bool) {
	if v.kind == to {
		return v, true
	}
	switch {
	case v.kind == KindNull:
		return Null, true // null is assignable to any kind
	case v.kind == KindInt && to == KindFloat:
		return Float(float64(v.i)), true
	case v.kind == KindFloat && to == KindInt && v.float() == math.Trunc(v.float()):
		return Int(int64(v.float())), true
	case v.kind == KindInt && to == KindRef:
		return RefVal(Ref(v.i)), true
	case v.kind == KindRef && to == KindInt:
		return Int(v.i), true
	case v.kind == KindInt && to == KindBool:
		return Bool(v.i != 0), true
	}
	return Null, false
}
