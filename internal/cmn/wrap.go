package cmn

import (
	"fmt"

	"repro/internal/value"
)

// Ref-wrapping constructors: clients that obtain entity surrogates from
// queries (QUEL results, ordering walks) convert them back into typed
// handles with these.  Each checks the surrogate's entity type.

func (m *Music) wrapCheck(ref value.Ref, want string) error {
	if m.DB.Is(ref, want) {
		return nil
	}
	typ, ok := m.DB.TypeOf(ref)
	if !ok {
		return fmt.Errorf("cmn: no entity @%d", ref)
	}
	return fmt.Errorf("cmn: @%d is a %s, not a %s", ref, typ, want)
}

// ScoreByRef wraps a SCORE surrogate.
func (m *Music) ScoreByRef(ref value.Ref) (*Score, error) {
	if err := m.wrapCheck(ref, "SCORE"); err != nil {
		return nil, err
	}
	return &Score{node{m, ref}}, nil
}

// MovementByRef wraps a MOVEMENT surrogate.
func (m *Music) MovementByRef(ref value.Ref) (*Movement, error) {
	if err := m.wrapCheck(ref, "MOVEMENT"); err != nil {
		return nil, err
	}
	return &Movement{node{m, ref}}, nil
}

// MeasureByRef wraps a MEASURE surrogate.
func (m *Music) MeasureByRef(ref value.Ref) (*Measure, error) {
	if err := m.wrapCheck(ref, "MEASURE"); err != nil {
		return nil, err
	}
	return &Measure{node{m, ref}}, nil
}

// VoiceByRef wraps a VOICE surrogate.
func (m *Music) VoiceByRef(ref value.Ref) (*Voice, error) {
	if err := m.wrapCheck(ref, "VOICE"); err != nil {
		return nil, err
	}
	return &Voice{node{m, ref}}, nil
}

// StaffByRef wraps a STAFF surrogate.
func (m *Music) StaffByRef(ref value.Ref) (*Staff, error) {
	if err := m.wrapCheck(ref, "STAFF"); err != nil {
		return nil, err
	}
	return &Staff{node{m, ref}}, nil
}

// ChordByRef wraps a CHORD surrogate.
func (m *Music) ChordByRef(ref value.Ref) (*Chord, error) {
	if err := m.wrapCheck(ref, "CHORD"); err != nil {
		return nil, err
	}
	return &Chord{node{m, ref}}, nil
}

// NoteByRef wraps a NOTE surrogate.
func (m *Music) NoteByRef(ref value.Ref) (*Note, error) {
	if err := m.wrapCheck(ref, "NOTE"); err != nil {
		return nil, err
	}
	return &Note{node{m, ref}}, nil
}

// GroupByRef wraps a GROUP surrogate.
func (m *Music) GroupByRef(ref value.Ref) (*Group, error) {
	if err := m.wrapCheck(ref, "GROUP"); err != nil {
		return nil, err
	}
	return &Group{node{m, ref}}, nil
}

// InstrumentByRef wraps an INSTRUMENT surrogate.
func (m *Music) InstrumentByRef(ref value.Ref) (*Instrument, error) {
	if err := m.wrapCheck(ref, "INSTRUMENT"); err != nil {
		return nil, err
	}
	return &Instrument{node{m, ref}}, nil
}

// Scores returns all scores in the database, in creation order.
func (m *Music) Scores() ([]*Score, error) {
	var out []*Score
	err := m.DB.Instances("SCORE", func(ref value.Ref, _ value.Tuple) bool {
		out = append(out, &Score{node{m, ref}})
		return true
	})
	return out, err
}
