package model

import (
	"sync"
	"testing"

	"repro/internal/value"
)

func TestSchemaLists(t *testing.T) {
	db := memModel(t)
	defineChordSchema(t, db)
	db.DefineRelationship("SIMILAR", []Role{
		{Name: "a", EntityType: "NOTE"}, {Name: "b", EntityType: "NOTE"},
	})
	ets := db.EntityTypes()
	if len(ets) != 2 || ets[0] != "CHORD" || ets[1] != "NOTE" {
		t.Fatalf("entity types: %v", ets)
	}
	rts := db.RelationshipTypes()
	if len(rts) != 1 || rts[0] != "SIMILAR" {
		t.Fatalf("relationship types: %v", rts)
	}
	os := db.Orderings()
	if len(os) != 1 || os[0] != "note_in_chord" {
		t.Fatalf("orderings: %v", os)
	}
	if db.Store() == nil {
		t.Fatal("Store")
	}
	if db.InstanceRelation("NOTE") != "E$NOTE" {
		t.Fatalf("instance relation: %q", db.InstanceRelation("NOTE"))
	}
	rt, _ := db.RelationshipType("SIMILAR")
	fields := rt.Fields()
	if len(fields) != 2 || fields[0].Kind != value.KindRef || fields[0].RefType != "NOTE" {
		t.Fatalf("fields: %+v", fields)
	}
	if _, ok := db.RelationshipType("NOPE"); ok {
		t.Fatal("missing relationship found")
	}
}

func TestRelationshipTuplesAndEachRelated(t *testing.T) {
	db := memModel(t)
	defineChordSchema(t, db)
	db.DefineRelationship("SIMILAR", []Role{
		{Name: "a", EntityType: "NOTE"}, {Name: "b", EntityType: "NOTE"},
	}, value.Field{Name: "distance", Kind: value.KindInt})
	n1, _ := db.NewEntity("NOTE", Attrs{"name": value.Int(1)})
	n2, _ := db.NewEntity("NOTE", Attrs{"name": value.Int(2)})
	n3, _ := db.NewEntity("NOTE", Attrs{"name": value.Int(3)})
	db.Relate("SIMILAR", map[string]value.Ref{"a": n1, "b": n2}, Attrs{"distance": value.Int(5)})
	db.Relate("SIMILAR", map[string]value.Ref{"a": n2, "b": n3}, Attrs{"distance": value.Int(7)})

	count := 0
	err := db.RelationshipTuples("SIMILAR", func(tup value.Tuple) bool {
		if len(tup) != 3 {
			t.Fatalf("tuple arity: %v", tup)
		}
		count++
		return true
	})
	if err != nil || count != 2 {
		t.Fatalf("tuples: %d %v", count, err)
	}
	if err := db.RelationshipTuples("NOPE", nil); err == nil {
		t.Fatal("missing relationship accepted")
	}

	var dists []int64
	err = db.EachRelated("SIMILAR", func(inst RelInstance) bool {
		dists = append(dists, inst.Attrs[0].AsInt())
		return len(dists) < 1 // early stop after first
	})
	if err != nil || len(dists) != 1 {
		t.Fatalf("each related: %v %v", dists, err)
	}
	if err := db.EachRelated("NOPE", nil); err == nil {
		t.Fatal("missing relationship accepted")
	}
	// Related with empty role matches any position.
	insts, err := db.Related("SIMILAR", "", n2)
	if err != nil || len(insts) != 2 {
		t.Fatalf("related any-role: %d %v", len(insts), err)
	}
	// Unknown role errors.
	if _, err := db.Related("SIMILAR", "bogus", n2); err == nil {
		t.Fatal("bogus role accepted")
	}
}

func TestWalkEarlyStopAndMissingOrdering(t *testing.T) {
	db := memModel(t)
	defineChordSchema(t, db)
	chord, _ := db.NewEntity("CHORD", nil)
	for i := 0; i < 5; i++ {
		n, _ := db.NewEntity("NOTE", nil)
		db.InsertChild("note_in_chord", chord, n, Last())
	}
	visited := 0
	db.Walk("note_in_chord", chord, func(value.Ref, int) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("early stop: %d", visited)
	}
	if err := db.Walk("nope", chord, nil); err == nil {
		t.Fatal("missing ordering accepted")
	}
	if _, err := db.Children("nope", chord); err == nil {
		t.Fatal("missing ordering accepted")
	}
	if _, err := db.ChildAt("nope", chord, 0); err == nil {
		t.Fatal("missing ordering accepted")
	}
	if _, err := db.IndexOf("nope", chord); err == nil {
		t.Fatal("missing ordering accepted")
	}
	if _, ok := db.ParentOf("nope", chord); ok {
		t.Fatal("missing ordering parent")
	}
	if _, ok := db.NextSibling("nope", chord); ok {
		t.Fatal("missing ordering sibling")
	}
	if _, err := db.BeforeIn("nope", chord, chord); err == nil {
		t.Fatal("missing ordering before")
	}
	if _, err := db.UnderIn("nope", chord, chord); err == nil {
		t.Fatal("missing ordering under")
	}
	if _, err := db.Roots("nope"); err == nil {
		t.Fatal("missing ordering roots")
	}
	if err := db.RemoveChild("nope", chord); err == nil {
		t.Fatal("missing ordering remove")
	}
	if err := db.MoveChild("nope", chord, Last()); err == nil {
		t.Fatal("missing ordering move")
	}
	// ChildAt on a parent with no children.
	lone, _ := db.NewEntity("CHORD", nil)
	if _, err := db.ChildAt("note_in_chord", lone, 0); err == nil {
		t.Fatal("childless parent ChildAt")
	}
	// MoveChild of a non-child.
	orphan, _ := db.NewEntity("NOTE", nil)
	if err := db.MoveChild("note_in_chord", orphan, Last()); err == nil {
		t.Fatal("move of non-child accepted")
	}
	// IndexOf of a non-child.
	if _, err := db.IndexOf("note_in_chord", orphan); err == nil {
		t.Fatal("IndexOf of non-child accepted")
	}
}

func TestRootsMultiple(t *testing.T) {
	db := memModel(t)
	defineChordSchema(t, db)
	c1, _ := db.NewEntity("CHORD", nil)
	c2, _ := db.NewEntity("CHORD", nil)
	for _, c := range []value.Ref{c1, c2} {
		n, _ := db.NewEntity("NOTE", nil)
		db.InsertChild("note_in_chord", c, n, Last())
	}
	roots, err := db.Roots("note_in_chord")
	if err != nil || len(roots) != 2 || roots[0] != c1 || roots[1] != c2 {
		t.Fatalf("roots: %v %v", roots, err)
	}
}

// TestConcurrentMutationsLockInOrder runs InsertChild, Relate,
// DeleteEntity and DeleteSubtree on one chord schema from four
// goroutines.  Every mutation locks entity relations before orderings
// before relationships, so no transaction closes a waits-for cycle: the
// lock manager picks no deadlock victim, and nothing is retried.
func TestConcurrentMutationsLockInOrder(t *testing.T) {
	const n = 150
	db := memModel(t)
	defineChordSchema(t, db)
	if _, err := db.DefineRelationship("SIMILAR", []Role{
		{Name: "a", EntityType: "NOTE"}, {Name: "b", EntityType: "NOTE"},
	}); err != nil {
		t.Fatal(err)
	}
	newNote := func(parent value.Ref) value.Ref {
		ref, err := db.NewEntity("NOTE", Attrs{"name": value.Int(1)})
		if err == nil {
			err = db.InsertChild("note_in_chord", parent, ref, At(int(ref)%3))
		}
		if err != nil {
			t.Error(err)
		}
		return ref
	}
	chord := func() value.Ref {
		ref, err := db.NewEntity("CHORD", Attrs{"name": value.Int(1)})
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	c := chord()
	doomed := make([]value.Ref, n)
	for i := range doomed {
		doomed[i] = newNote(c)
	}
	subtrees := make([]value.Ref, n/10)
	for i := range subtrees {
		subtrees[i] = chord()
		for j := 0; j < 3; j++ {
			newNote(subtrees[i])
		}
	}
	deadlocks := db.store.Obs().Counter("txn.deadlock")
	before := deadlocks.Value()
	var wg sync.WaitGroup
	run := func(f func(i int) error, count int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < count; i++ {
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(int) error { newNote(c); return nil }, n)
	run(func(i int) error { return db.DeleteEntity(doomed[i]) }, n)
	run(func(i int) error { return db.DeleteSubtree(subtrees[i]) }, len(subtrees))
	run(func(i int) error {
		a := newNote(c)
		return db.Relate("SIMILAR", map[string]value.Ref{"a": a, "b": a}, nil)
	}, n)
	wg.Wait()
	if got := deadlocks.Value() - before; got != 0 {
		t.Fatalf("%d deadlock victims among concurrent InsertChild/Relate/DeleteEntity/DeleteSubtree", got)
	}
	kids, err := db.Children("note_in_chord", c)
	if err != nil || len(kids) != 2*n {
		t.Fatalf("chord has %d children (%v), want %d", len(kids), err, 2*n)
	}
}
