package model

import (
	"context"
	"testing"

	"repro/internal/value"
)

// TestSnapshotOrderingIsolation: a snapshot pinned before a MoveChild
// keeps serving the old sibling order — Children, ChildPosition,
// SiblingsBefore, SiblingsAfter — while a fresh snapshot serves the new
// one, both agreeing with the live runtime at their respective points.
func TestSnapshotOrderingIsolation(t *testing.T) {
	db := memModel(t)
	defineChordSchema(t, db)

	chord, err := db.NewEntity("CHORD", Attrs{"name": value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	notes := make([]value.Ref, 4)
	for i := range notes {
		n, err := db.NewEntity("NOTE", Attrs{"name": value.Int(int64(i)), "pitch": value.Int(int64(60 + i))})
		if err != nil {
			t.Fatal(err)
		}
		notes[i] = n
		if err := db.InsertChild("note_in_chord", chord, n, Last()); err != nil {
			t.Fatal(err)
		}
	}

	old, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	// Move the last note to the front.
	if err := db.MoveChild("note_in_chord", notes[3], First()); err != nil {
		t.Fatal(err)
	}

	wantOld := []value.Ref{notes[0], notes[1], notes[2], notes[3]}
	wantNew := []value.Ref{notes[3], notes[0], notes[1], notes[2]}

	if got, err := old.Children("note_in_chord", chord); err != nil || !refsEqual(got, wantOld) {
		t.Fatalf("old snapshot children = %v (%v), want %v", got, err, wantOld)
	}
	fresh, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got, err := fresh.Children("note_in_chord", chord); err != nil || !refsEqual(got, wantNew) {
		t.Fatalf("fresh snapshot children = %v (%v), want %v", got, err, wantNew)
	}
	if got, err := db.Children("note_in_chord", chord); err != nil || !refsEqual(got, wantNew) {
		t.Fatalf("live children = %v (%v), want %v", got, err, wantNew)
	}

	// Sibling probes around notes[1]: old order 0 < 1 < 2 < 3, new order
	// 3 < 0 < 1 < 2.
	if got, err := old.SiblingsBefore("note_in_chord", notes[1]); err != nil || !refsEqual(got, []value.Ref{notes[0]}) {
		t.Fatalf("old SiblingsBefore = %v (%v)", got, err)
	}
	if got, err := old.SiblingsAfter("note_in_chord", notes[1]); err != nil || !refsEqual(got, []value.Ref{notes[2], notes[3]}) {
		t.Fatalf("old SiblingsAfter = %v (%v)", got, err)
	}
	if got, err := fresh.SiblingsBefore("note_in_chord", notes[1]); err != nil || !refsEqual(got, []value.Ref{notes[3], notes[0]}) {
		t.Fatalf("fresh SiblingsBefore = %v (%v)", got, err)
	}
	if got, err := fresh.SiblingsAfter("note_in_chord", notes[1]); err != nil || !refsEqual(got, []value.Ref{notes[2]}) {
		t.Fatalf("fresh SiblingsAfter = %v (%v)", got, err)
	}

	// ChildPosition: parent agrees everywhere; the moved child's rank
	// differs between the snapshots.
	oldParent, oldRank, ok, err := old.ChildPosition("note_in_chord", notes[3])
	if err != nil || !ok || oldParent != chord {
		t.Fatalf("old ChildPosition: %v %v %v %v", oldParent, oldRank, ok, err)
	}
	newParent, newRank, ok, err := fresh.ChildPosition("note_in_chord", notes[3])
	if err != nil || !ok || newParent != chord {
		t.Fatalf("fresh ChildPosition: %v %v %v %v", newParent, newRank, ok, err)
	}
	if oldRank <= 0 || newRank >= oldRank {
		t.Fatalf("move did not lower the rank: old %d, new %d", oldRank, newRank)
	}
}

// TestSnapshotOrderingRemove: a child detached after the pin is still
// placed in the old snapshot and absent from a fresh one.
func TestSnapshotOrderingRemove(t *testing.T) {
	db := memModel(t)
	defineChordSchema(t, db)
	chord, _ := db.NewEntity("CHORD", Attrs{"name": value.Int(1)})
	a, _ := db.NewEntity("NOTE", Attrs{"name": value.Int(1), "pitch": value.Int(60)})
	b, _ := db.NewEntity("NOTE", Attrs{"name": value.Int(2), "pitch": value.Int(62)})
	for _, n := range []value.Ref{a, b} {
		if err := db.InsertChild("note_in_chord", chord, n, Last()); err != nil {
			t.Fatal(err)
		}
	}
	old, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := db.RemoveChild("note_in_chord", a); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := old.ChildPosition("note_in_chord", a); err != nil || !ok {
		t.Fatalf("old snapshot lost the removed child: ok=%v err=%v", ok, err)
	}
	fresh, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, _, ok, err := fresh.ChildPosition("note_in_chord", a); err != nil || ok {
		t.Fatalf("fresh snapshot still places the removed child: ok=%v err=%v", ok, err)
	}
	if got, err := fresh.Children("note_in_chord", chord); err != nil || !refsEqual(got, []value.Ref{b}) {
		t.Fatalf("fresh children = %v (%v)", got, err)
	}
}

// TestSnapshotInstancesAndAttrs: instance scans and attribute updates
// respect the pin, over the heap and the by_parent_rank-free entity
// indexes alike.
func TestSnapshotInstancesAndAttrs(t *testing.T) {
	db := memModel(t)
	defineChordSchema(t, db)
	n, err := db.NewEntity("NOTE", Attrs{"name": value.Int(1), "pitch": value.Int(60)})
	if err != nil {
		t.Fatal(err)
	}
	old, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := db.SetAttrs(n, Attrs{"pitch": value.Int(72)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewEntity("NOTE", Attrs{"name": value.Int(2), "pitch": value.Int(64)}); err != nil {
		t.Fatal(err)
	}

	pitches := func(s *Snap) []int64 {
		var out []int64
		if err := s.Instances("NOTE", nil, func(_ value.Ref, attrs value.Tuple) bool {
			out = append(out, attrs[1].AsInt())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := pitches(old); len(got) != 1 || got[0] != 60 {
		t.Fatalf("old snapshot instances = %v", got)
	}
	fresh, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := pitches(fresh); len(got) != 2 || got[0] != 72 || got[1] != 64 {
		t.Fatalf("fresh snapshot instances = %v", got)
	}
	if _, err := old.Children("no_such_ordering", n); err == nil {
		t.Fatal("unknown ordering accepted")
	}
	if err := old.Instances("NOPE", nil, func(value.Ref, value.Tuple) bool { return true }); err == nil {
		t.Fatal("unknown entity type accepted")
	}
}

func refsEqual(a, b []value.Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
