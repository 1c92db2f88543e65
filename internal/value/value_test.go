package value

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueSize pins the 32-byte layout on 64-bit platforms: a tag, one
// int64 and one string header.  Every loaded tuple is a slice of
// Values, so a wider Value widens every row the engine holds.
func TestValueSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestBytesCopies: Bytes keeps its own copy of the argument, and
// AsBytes hands out a copy, so neither side can change the value.
func TestBytesCopies(t *testing.T) {
	b := []byte{1, 0, 2}
	v := Bytes(b)
	b[0] = 9
	got := v.AsBytes()
	if string(got) != "\x01\x00\x02" {
		t.Fatalf("Bytes retained its argument: %x", got)
	}
	got[1] = 9
	if again := v.AsBytes(); string(again) != "\x01\x00\x02" {
		t.Fatalf("AsBytes shares the value's content: %x", again)
	}
	if !Bytes(nil).Equal(Bytes([]byte{})) || Bytes(nil).Kind() != KindBytes {
		t.Fatal("empty bytes values differ")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "integer", KindFloat: "float",
		KindString: "string", KindBool: "boolean", KindBytes: "bytes", KindRef: "ref",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestKindFromName(t *testing.T) {
	cases := []struct {
		name string
		want Kind
		ok   bool
	}{
		{"integer", KindInt, true},
		{"INT", KindInt, true},
		{"string", KindString, true},
		{"float", KindFloat, true},
		{"boolean", KindBool, true},
		{"bytes", KindBytes, true},
		{"ref", KindRef, true},
		{"wibble", KindNull, false},
	}
	for _, c := range cases {
		got, ok := KindFromName(c.name)
		if got != c.want || ok != c.ok {
			t.Errorf("KindFromName(%q) = %v,%v want %v,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float: %v", v)
	}
	if v := Str("fugue"); v.Kind() != KindString || v.AsString() != "fugue" {
		t.Errorf("Str: %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool: %v", v)
	}
	if v := Bytes([]byte{1, 2}); v.Kind() != KindBytes || len(v.AsBytes()) != 2 {
		t.Errorf("Bytes: %v", v)
	}
	if v := RefVal(7); v.Kind() != KindRef || v.AsRef() != 7 {
		t.Errorf("Ref: %v", v)
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("Int.AsFloat should convert")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Int(-5), "-5"},
		{Float(1.5), "1.5"},
		{Str("a b"), "a b"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Bytes([]byte{1, 2, 3}), "bytes[3]"},
		{RefVal(9), "@9"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q want %q", c.v.Kind(), got, c.want)
		}
	}
	if got := Str("x").Quoted(); got != `"x"` {
		t.Errorf("Quoted = %q", got)
	}
	if got := Int(3).Quoted(); got != "3" {
		t.Errorf("Quoted int = %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Int(2), Float(2.0), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{RefVal(3), RefVal(4), -1},
		{Bytes([]byte{1}), Bytes([]byte{1, 0}), -1},
		{Bytes([]byte{2}), Bytes([]byte{1, 0}), 1},
		{Null, Null, 0},
		{Null, Int(0), -1}, // null sorts before every non-null (kind tag order)
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareNaN(t *testing.T) {
	nan := Float(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN should equal itself under total order")
	}
	if Compare(nan, Float(0)) >= 0 != (Compare(Float(0), nan) <= 0) {
		t.Error("NaN ordering not antisymmetric")
	}
}

func TestCoerce(t *testing.T) {
	if v, ok := Coerce(Int(3), KindFloat); !ok || v.AsFloat() != 3.0 {
		t.Error("int→float")
	}
	if v, ok := Coerce(Float(3.0), KindInt); !ok || v.AsInt() != 3 {
		t.Error("float→int exact")
	}
	if _, ok := Coerce(Float(3.5), KindInt); ok {
		t.Error("float→int inexact should fail")
	}
	if v, ok := Coerce(Int(7), KindRef); !ok || v.AsRef() != 7 {
		t.Error("int→ref")
	}
	if v, ok := Coerce(RefVal(7), KindInt); !ok || v.AsInt() != 7 {
		t.Error("ref→int")
	}
	if _, ok := Coerce(Str("x"), KindInt); ok {
		t.Error("string→int should fail")
	}
	if v, ok := Coerce(Null, KindString); !ok || !v.IsNull() {
		t.Error("null assignable to any kind")
	}
	if v, ok := Coerce(Int(1), KindBool); !ok || !v.AsBool() {
		t.Error("int→bool")
	}
}
