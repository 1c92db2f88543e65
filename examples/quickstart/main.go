// Quickstart: define a schema with hierarchical ordering, load data, and
// run the paper's §5.6 queries.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/mdm"
	"repro/internal/model"
	"repro/internal/value"
)

func main() {
	// An in-memory music data manager.  Pass Dir for durability.
	m, err := mdm.Open(mdm.Options{SkipCMN: true})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	s := m.NewSession()

	// The schema of §5.4: notes ordered within chords, with a secondary
	// index so pitch predicates become B-tree range scans.
	ctx := context.Background()
	if _, err := s.ExecContext(ctx, `
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = integer, chord = integer)
define ordering note_in_chord (NOTE) under CHORD
define index on NOTE (pitch)
`); err != nil {
		log.Fatal(err)
	}

	// Load a four-note chord through the typed model API.
	db := m.Model
	chord, err := db.NewEntity("CHORD", model.Attrs{"name": value.Int(1)})
	if err != nil {
		log.Fatal(err)
	}
	for i, pitch := range []int64{60, 64, 67, 72} { // C major
		note, err := db.NewEntity("NOTE", model.Attrs{
			"name": value.Int(int64(i + 1)), "pitch": value.Int(pitch),
			"chord": value.Int(1),
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := db.InsertChild("note_in_chord", chord, note, model.Last()); err != nil {
			log.Fatal(err)
		}
	}

	// "The third note in chord x" (§5.4).
	third, err := db.ChildAt("note_in_chord", chord, 2)
	if err != nil {
		log.Fatal(err)
	}
	pitch, _ := db.Attr(third, "pitch")
	fmt.Printf("the third note of the chord has pitch %s\n\n", pitch)

	// The §5.6 queries, verbatim.
	for _, q := range []string{
		`range of n1, n2 is NOTE
		 retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 3`,
		`retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = 3`,
		`range of c1 is CHORD
		 retrieve (n1.name) where n1 under c1 in note_in_chord and c1.name = 1`,
		`retrieve (c1.name) where n1 under c1 in note_in_chord and n1.name = 4`,
	} {
		res, err := s.ExecContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Text())
	}

	// The cost-based planner at work: explain shows the pitch predicate
	// running as an IndexScan key range, and the chord/note equi-join as
	// a HashJoin instead of a nested loop.
	for _, q := range []string{
		`explain retrieve (n1.name) where n1.pitch >= 64 and n1.pitch < 70`,
		`explain retrieve (n1.name, c1.name) where n1.chord = c1.name`,
	} {
		res, err := s.ExecContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Text())
	}
}
