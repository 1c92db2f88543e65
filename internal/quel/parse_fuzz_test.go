package quel_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/biblio"
	"repro/internal/cmn"
	"repro/internal/demo"
	"repro/internal/quel"
)

// FuzzParse drives the one parser of the language, definitions and QUEL
// alike, with arbitrary text.  It must never panic, every error it
// returns must wrap quel.ErrParse, and parsing the same text twice must
// give equal statement trees and placeholder counts.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		cmn.SchemaDDL,
		biblio.SchemaDDL,
		biblio.GramDDL,
		demo.BeamSchemaDDL,
		`define entity DATE (day = integer, month = integer, year = integer)
define entity COMPOSITION (title = string, composition_date = DATE)
define relationship COMPOSER (person = PERSON, composition = COMPOSITION)
define ordering note_in_chord (NOTE) under CHORD`,
		"define ordering (BEAM_GROUP, CHORD) under BEAM_GROUP",
		"define ordering nop (NOTE)",
		"define index on NOTE (pitch, name)\ndrop index on NOTE (pitch, name)",
		"-- schema\ndefine entity X (a = integer)\nappend to X (a = 1)",
		`range of c is COMPOSITION
range of p is PERSON
retrieve (c.title) where c.composition_date.year = 1814 and p.name = "Key"`,
		`range of n1, n2 is NOTE
retrieve unique (n1.name, n2.name) where n1 before n2 in note_in_chord sort by name desc`,
		"range of e is CATALOG_ENTRY\nretrieve (e.number, e.title) where e.number = $1",
		"range of e is CATALOG_ENTRY\nretrieve (e.number) where e incipit $1",
		"explain retrieve (e.number) where e incipit \"60 62 64 65\"",
		"retrieve (n = count(NOTE.all where NOTE.pitch > 60), m = avg(NOTE.pitch))",
		"replace w (opus = $1) where w.title = $2",
		"delete n where not (n.pitch >= -3 * (2 + 1.5) or n is m)",
		`define entity X (a = "unterminated)`,
		"retrieve (w.title) where w.opus = $0",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, na, errA := quel.ParseParams(src)
		b, nb, errB := quel.ParseParams(src)
		if errA != nil {
			if !errors.Is(errA, quel.ErrParse) {
				t.Fatalf("%q: error does not wrap ErrParse: %v", src, errA)
			}
			if errB == nil || errB.Error() != errA.Error() {
				t.Fatalf("%q: second parse gave %v, first %v", src, errB, errA)
			}
			return
		}
		if errB != nil || na != nb || !reflect.DeepEqual(a, b) {
			t.Fatalf("%q: second parse differs: %d %#v / %d %#v (%v)", src, na, a, nb, b, errB)
		}
	})
}
