package value

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Field describes one attribute of an entity or relationship type: its
// name and value kind.  For KindRef fields, RefType names the entity type
// the reference must point to ("" means any type).
type Field struct {
	Name    string
	Kind    Kind
	RefType string
}

// Schema is an ordered list of fields describing the tuples of one
// relation.  Field order is significant: tuples are positional.
type Schema struct {
	fields []Field
	byName map[string]int
}

// NewSchema builds a schema from fields.  Field names must be unique
// (case-insensitive); NewSchema panics otherwise, since schemas are
// constructed from validated DDL.
func NewSchema(fields ...Field) *Schema {
	s := &Schema{fields: fields, byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		key := strings.ToLower(f.Name)
		if _, dup := s.byName[key]; dup {
			panic(fmt.Sprintf("value: duplicate field %q in schema", f.Name))
		}
		s.byName[key] = i
	}
	return s
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i'th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// Index returns the position of the named field (case-insensitive) and
// whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// Extend returns a new schema with extra fields appended.
func (s *Schema) Extend(fields ...Field) *Schema {
	all := make([]Field, 0, len(s.fields)+len(fields))
	all = append(all, s.fields...)
	all = append(all, fields...)
	return NewSchema(all...)
}

// String renders the schema in DDL-like form.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", f.Name, f.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row of values, positionally matching a Schema.
type Tuple []Value

// Clone returns a copy of the tuple.  Byte-valued fields share backing
// storage; callers that mutate bytes must copy them explicitly.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Validate checks that the tuple conforms to the schema: correct arity
// and each value coercible to the field kind.  On success it returns the
// coerced tuple.
func (t Tuple) Validate(s *Schema) (Tuple, error) {
	if err := t.checkArity(s); err != nil {
		return nil, err
	}
	out := make(Tuple, len(t))
	for i, v := range t {
		cv, err := s.coerce(i, v)
		if err != nil {
			return nil, err
		}
		out[i] = cv
	}
	return out, nil
}

// AppendValidRow validates t against s as Validate does and appends the
// coerced tuple's encoding (AppendTuple's bytes) to dst, without
// building the coerced tuple.  On failure it returns dst as it was.
func (t Tuple) AppendValidRow(dst []byte, s *Schema) ([]byte, error) {
	if err := t.checkArity(s); err != nil {
		return dst, err
	}
	buf := binary.AppendUvarint(dst, uint64(len(t)))
	for i, v := range t {
		cv, err := s.coerce(i, v)
		if err != nil {
			return dst, err
		}
		buf = Append(buf, cv)
	}
	return buf, nil
}

func (t Tuple) checkArity(s *Schema) error {
	if len(t) != s.Len() {
		return fmt.Errorf("value: tuple has %d values, schema %s has %d fields", len(t), s, s.Len())
	}
	return nil
}

// coerce converts v to the kind of field i.
func (s *Schema) coerce(i int, v Value) (Value, error) {
	cv, ok := Coerce(v, s.fields[i].Kind)
	if !ok {
		return Null, fmt.Errorf("value: field %s: cannot coerce %s value %s to %s",
			s.fields[i].Name, v.Kind(), v.Quoted(), s.fields[i].Kind)
	}
	return cv, nil
}

// String renders the tuple for display.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.Quoted()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports whether two tuples are field-wise equal.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}
