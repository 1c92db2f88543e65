package quel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/value"
)

// buildScores populates SCORE/NOTE with nScores scores of notesPer notes
// each, attached through the note_in_score ordering, with a secondary
// index on pitch.  Pitches cycle deterministically so goldens stay
// stable.
func buildScores(t testing.TB, db *model.Database, nScores, notesPer int) {
	t.Helper()
	if _, err := NewSession(db).Exec(`
define entity SCORE (name = integer)
define entity NOTE (name = integer, pitch = integer, score = integer)
define ordering note_in_score (NOTE) under SCORE
define index on NOTE (pitch)
define index on NOTE (name)
`); err != nil {
		t.Fatal(err)
	}
	id := 0
	for si := 0; si < nScores; si++ {
		sc, err := db.NewEntity("SCORE", model.Attrs{"name": value.Int(int64(si))})
		if err != nil {
			t.Fatal(err)
		}
		for ni := 0; ni < notesPer; ni++ {
			n, err := db.NewEntity("NOTE", model.Attrs{
				"name":  value.Int(int64(id)),
				"pitch": value.Int(int64(36 + id*7%48)),
				"score": value.Int(int64(si)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.InsertChild("note_in_score", sc, n, model.Last()); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
}

// TestMultiScorePlannerNaiveDifferential runs randomized retrieves over
// an ordering with many parents (10 scores of 20 notes): under, before
// and after across scores, and hash joins between notes of different
// scores.  The planner and the naive nested-loop path must agree on
// every result multiset.
func TestMultiScorePlannerNaiveDifferential(t *testing.T) {
	db, planned := newSession(t)
	buildScores(t, db, 10, 20)
	naive := NewSession(db)
	naive.naive = true

	decls := "range of n, n1, n2 is NOTE\nrange of s, s1, s2 is SCORE"
	mustExec(t, planned, decls)
	mustExec(t, naive, decls)

	rng := rand.New(rand.NewSource(1987))
	op := func() string { return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)] }
	pitch := func() int64 { return 36 + rng.Int63n(48) }
	score := func() int64 { return rng.Int63n(10) }
	name := func() int64 { return rng.Int63n(200) }
	templates := []func() string{
		// Single-variable scans: heap, index range, empty range.
		func() string { return fmt.Sprintf(`retrieve (n.name, n.pitch) where n.pitch %s %d`, op(), pitch()) },
		func() string {
			return fmt.Sprintf(`retrieve (n.name) where n.pitch >= %d and n.pitch < %d`, pitch(), pitch())
		},
		func() string { return `retrieve (n.name) where n.pitch > 999` },
		// Multi-score ordering probes, both orientations.
		func() string {
			return fmt.Sprintf(`retrieve (n.name, s.name) where n under s in note_in_score and s.name %s %d`, op(), score())
		},
		func() string {
			return fmt.Sprintf(`retrieve (s.name) where n under s in note_in_score and n.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 before n2 in note_in_score and n2.name = %d`, name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n1.name) where n1 after n2 in note_in_score and n2.name %s %d`, op(), name())
		},
		// Hash joins across scores, with and without sargs.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1.pitch = n2.pitch and n1.name < %d and n2.name >= %d`, name(), name())
		},
		func() string {
			return fmt.Sprintf(`retrieve (n.score, s.name) where n.score = s.name and s.name < %d`, score())
		},
		func() string { return fmt.Sprintf(`retrieve (n1.name) where n1 = n2 and n2.name = %d`, name()) },
		// Three-way: hash join plus ordering probe.
		func() string {
			return fmt.Sprintf(`retrieve (n1.name, n2.name) where n1 under s in note_in_score and n1.pitch = n2.pitch and s.name %s %d`, op(), score())
		},
		// Or-disjunct keeps conjuncts out of the join keys.
		func() string {
			return fmt.Sprintf(`retrieve (n.name, s.name) where n.score = s.name or s.name > %d`, score())
		},
		// Unique and sorted variants.
		func() string {
			return fmt.Sprintf(`retrieve unique (p = n.pitch) where n under s in note_in_score and s.name <= %d sort by p`, score())
		},
		func() string {
			return fmt.Sprintf(`retrieve (p = n.pitch, nm = n.name) where n.pitch < %d sort by p desc`, pitch())
		},
		func() string { return `retrieve unique (sc = n.score) sort by sc desc` },
	}

	for i := 0; i < 250; i++ {
		q := templates[i%len(templates)]()
		pres, perr := planned.Exec(q)
		nres, nerr := naive.Exec(q)
		if perr != nil || nerr != nil {
			t.Fatalf("query %q: planner err = %v, naive err = %v", q, perr, nerr)
		}
		// Naive agrees as a multiset (its row order is its own).
		if got, want := canonRows(pres), canonRows(nres); got != want {
			t.Fatalf("query %q: result mismatch\nplanner:\n%s\nnaive:\n%s", q, got, want)
		}
	}
}
