package model

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/value"
)

// rankGap is the spacing between consecutive sibling ranks.  New siblings
// inserted between neighbors take the midpoint; when the midpoint
// collides (gap exhausted), the parent's children are renumbered with
// fresh gaps.  2^20 allows twenty levels of repeated bisection between
// any two appends before a renumber.
const rankGap int64 = 1 << 20

// Position is where to insert a child within its siblings.
type Position struct {
	kind    posKind
	sibling value.Ref // for before/after
	index   int       // for at
}

type posKind uint8

const (
	posLast posKind = iota
	posFirst
	posBefore
	posAfter
	posAt
)

// Last appends after all existing siblings.
func Last() Position { return Position{kind: posLast} }

// First prepends before all existing siblings.
func First() Position { return Position{kind: posFirst} }

// Before places the child immediately before sibling.
func Before(sibling value.Ref) Position { return Position{kind: posBefore, sibling: sibling} }

// After places the child immediately after sibling.
func After(sibling value.Ref) Position { return Position{kind: posAfter, sibling: sibling} }

// At places the child at ordinal position i (0-based) among the siblings.
func At(i int) Position { return Position{kind: posAt, index: i} }

// InsertChild places child under parent in the named ordering at the
// given position.  It enforces the §5.5 well-formedness restrictions:
//
//   - child's type must be one of the ordering's declared child types,
//     and parent's type must be the declared parent type;
//   - child may have at most one parent per ordering (a second insertion
//     without removal returns ErrAlreadyChild, from the unique by_child
//     index);
//   - for recursive orderings, the insertion must not create a P-edge
//     cycle (an instance "part of itself"): ErrPCycle.
//
// S-edge cycles cannot arise structurally: sibling order is a total order
// induced by integer ranks.
func (t Tx) InsertChild(ordering string, parent, child value.Ref, pos Position) error {
	o, err := t.db.ordering(ordering)
	if err != nil {
		return err
	}
	if err := t.checkTypes(o, parent, child); err != nil {
		return err
	}
	if err := t.tx.LockExclusive(o.rel); err != nil {
		return err
	}
	// P-cycle check: an entity may not be placed under itself (§5.5
	// disallows instance graphs where an instance is "part of" itself).
	if child == parent {
		return fmt.Errorf("%w: @%d under itself", ErrPCycle, child)
	}
	// Walking P-edges upward from parent must not reach child; only a
	// recursive ordering has edges to walk.
	for anc := parent; o.Recursive(); {
		_, up, _, ok, err := t.position(o, anc)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if up == child {
			return fmt.Errorf("%w: @%d is an ancestor of @%d in ordering %s", ErrPCycle, child, parent, ordering)
		}
		anc = up
	}
	err = t.place(o, parent, child, pos)
	if errors.Is(err, storage.ErrDuplicateKey) {
		return fmt.Errorf("%w: @%d in ordering %s", ErrAlreadyChild, child, ordering)
	}
	return err
}

// checkTypes verifies that parent is an instance of o's parent type and
// child of one of its child types.  Each is a typed point read; only a
// failure pays for locating the entity's actual type.
func (t Tx) checkTypes(o *Ordering, parent, child value.Ref) error {
	if err := t.checkParent(o, parent); err != nil {
		return err
	}
	for _, c := range o.Children {
		if _, ok, err := t.InstanceRow(c, child); ok || err != nil {
			return err
		}
	}
	return t.mistyped(child, func(typ string) error {
		return fmt.Errorf("%w: %s under ordering %s", ErrWrongChildType, typ, o.Name)
	})
}

// checkParent verifies that parent is an instance of o's parent type.
func (t Tx) checkParent(o *Ordering, parent value.Ref) error {
	if _, ok, err := t.InstanceRow(o.Parent, parent); ok || err != nil {
		return err
	}
	return t.mistyped(parent, func(typ string) error {
		return fmt.Errorf("%w: %s is not parent type %s of ordering %s", ErrWrongParent, typ, o.Parent, o.Name)
	})
}

// place inserts the edge parent → child at pos, renumbering parent's
// children first when the neighbours' ranks leave no gap.  The caller
// holds o's exclusive lock.
func (t Tx) place(o *Ordering, parent, child value.Ref, pos Position) error {
	rank, needRenumber, err := t.chooseRank(o, parent, pos)
	if err != nil {
		return err
	}
	if needRenumber {
		if err := t.renumber(o, parent); err != nil {
			return err
		}
		if rank, needRenumber, err = t.chooseRank(o, parent, pos); err != nil {
			return err
		} else if needRenumber {
			return fmt.Errorf("model: ordering %s: rank space exhausted after renumber", o.Name)
		}
	}
	_, err = t.tx.Insert(o.rel, value.Tuple{value.RefVal(parent), value.RefVal(child), value.Int(rank)})
	return err
}

// chooseRank computes the rank for an insertion at pos under parent,
// reporting whether a renumber is needed first (no integer strictly
// between the neighbours).  The neighbours are the entries of the
// (parent, rank) index either side of the insertion point.
func (t Tx) chooseRank(o *Ordering, parent value.Ref, pos Position) (rank int64, renumber bool, err error) {
	if pos.kind == posAt {
		at, _, err := t.childAt(o, parent, max(pos.index, 0))
		if err != nil {
			return 0, false, err
		}
		pos = Before(at) // past the end at is 0, no sibling: append
	}
	// The neighbour ranks, each valid when its ok is set.
	var lo, hi int64
	var loOK, hiOK bool
	edge := func(rank *int64, ok *bool, row value.Row, rerr error) {
		if err = rerr; !row.IsZero() {
			*rank, *ok = row.Col(2).AsInt(), true
		}
	}
	plo, phi := refRange(parent)
	switch pos.kind {
	case posFirst:
		row, rerr := t.first(o, plo, phi, false)
		edge(&hi, &hiOK, row, rerr)
	case posBefore, posAfter:
		_, sp, srank, ok, perr := t.position(o, pos.sibling)
		if perr != nil || !ok || sp != parent {
			// Not a sibling: append; callers validate siblings beforehand.
			if err = perr; err == nil {
				row, rerr := t.first(o, plo, phi, true)
				edge(&lo, &loOK, row, rerr)
			}
			break
		}
		nlo, nhi := siblingRange(parent, srank, pos.kind == posBefore)
		if pos.kind == posBefore {
			hi, hiOK = srank, true
			row, rerr := t.first(o, nlo, nhi, true)
			edge(&lo, &loOK, row, rerr)
		} else {
			lo, loOK = srank, true
			row, rerr := t.first(o, nlo, nhi, false)
			edge(&hi, &hiOK, row, rerr)
		}
	default: // posLast
		row, rerr := t.first(o, plo, phi, true)
		edge(&lo, &loOK, row, rerr)
	}
	switch {
	case err != nil:
		return 0, false, err
	case loOK && hiOK:
		return lo + (hi-lo)/2, hi-lo < 2, nil
	case loOK:
		return lo + rankGap, false, nil
	case hiOK:
		return hi - rankGap, false, nil
	}
	return 0, false, nil
}

// childAt returns parent's i'th child (0 when i is past the end) and the
// number of children.  Through a transaction it uses the (parent, rank)
// index's order statistics (see live); a snapshot walks the range.
func (v View) childAt(o *Ordering, parent value.Ref, i int) (value.Ref, int, error) {
	lo, hi := refRange(parent)
	if !v.live() {
		var kid value.Ref
		n := 0
		err := v.r.IndexRange(o.rel, ixByParentRank, lo, hi, false, func(_ storage.RowID, t value.Row) bool {
			if n == i {
				kid = t.Col(1).AsRef()
			}
			n++
			return true
		})
		return kid, n, err
	}
	if kid, err := v.first(o, lo, hi, false); kid.IsZero() || err != nil {
		return 0, 0, err
	}
	base, _ := v.count(o, nil, lo)
	n, _ := v.count(o, lo, hi)
	if i < 0 || i >= n {
		return 0, n, nil
	}
	var kb [64]byte
	key, _ := v.db.store.Relation(o.rel).IndexAt(kb[:0], ixByParentRank, base+i)
	row, err := v.first(o, key, hi, false)
	if row.IsZero() {
		return 0, n, err
	}
	return row.Col(1).AsRef(), n, nil
}

// renumber rewrites the ranks of all children under parent with fresh
// rankGap spacing, in the caller's transaction.
func (t Tx) renumber(o *Ordering, parent value.Ref) error {
	type edge struct {
		id storage.RowID
		t  value.Row
	}
	var edges []edge
	lo, hi := refRange(parent)
	if err := t.r.IndexRange(o.rel, ixByParentRank, lo, hi, false, func(id storage.RowID, row value.Row) bool {
		edges = append(edges, edge{id, row})
		return true
	}); err != nil {
		return err
	}
	var nt value.Tuple
	for i, e := range edges {
		nt = e.t.Decode(nt)
		nt[2] = value.Int(int64(i) * rankGap)
		if err := t.tx.Update(o.rel, e.id, nt); err != nil {
			return err
		}
	}
	return nil
}

// RemoveChild detaches child from its parent in the named ordering.
func (t Tx) RemoveChild(ordering string, child value.Ref) error {
	o, err := t.db.ordering(ordering)
	if err != nil {
		return err
	}
	if err := t.tx.LockExclusive(o.rel); err != nil {
		return err
	}
	id, _, _, ok, err := t.position(o, child)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("model: @%d is not a child in ordering %s", child, ordering)
	}
	return t.tx.Delete(o.rel, id)
}

// MoveChild repositions child among its current siblings.
func (t Tx) MoveChild(ordering string, child value.Ref, pos Position) error {
	o, err := t.db.ordering(ordering)
	if err != nil {
		return err
	}
	if err := t.tx.LockExclusive(o.rel); err != nil {
		return err
	}
	id, parent, _, ok, err := t.position(o, child)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("model: @%d is not a child in ordering %s", child, ordering)
	}
	if err := t.tx.Delete(o.rel, id); err != nil {
		return err
	}
	return t.place(o, parent, child, pos)
}

// InsertChild places child under parent in the named ordering at the
// given position, in one transaction (see Tx.InsertChild).
func (db *Database) InsertChild(ordering string, parent, child value.Ref, pos Position) error {
	return db.write(context.Background(), func(t Tx) error { return t.InsertChild(ordering, parent, child, pos) })
}

// RemoveChild detaches child from its parent in the named ordering.
func (db *Database) RemoveChild(ordering string, child value.Ref) error {
	return db.write(context.Background(), func(t Tx) error { return t.RemoveChild(ordering, child) })
}

// MoveChild repositions child among its current siblings.
func (db *Database) MoveChild(ordering string, child value.Ref, pos Position) error {
	return db.write(context.Background(), func(t Tx) error { return t.MoveChild(ordering, child, pos) })
}

// Children returns the ordered children of parent in the named ordering.
func (db *Database) Children(ordering string, parent value.Ref) ([]value.Ref, error) {
	return read1(db, func(v View) ([]value.Ref, error) { return v.Children(ordering, parent) })
}

// ChildAt returns the i'th (0-based) child of parent in the ordering.
// This is the "third note in chord x" query of §5.4: O(log n) from the
// (parent, rank) index's order statistics.
func (db *Database) ChildAt(ordering string, parent value.Ref, i int) (value.Ref, error) {
	o, err := db.ordering(ordering)
	if err != nil {
		return 0, err
	}
	return read1(db, func(v View) (value.Ref, error) {
		child, n, err := v.childAt(o, parent, i)
		switch {
		case err != nil || child != 0:
			return child, err
		case n == 0:
			return 0, fmt.Errorf("model: @%d has no children in ordering %s", parent, ordering)
		}
		return 0, fmt.Errorf("model: @%d has no child at position %d in ordering %s (have %d)", parent, i, ordering, n)
	})
}

// ParentOf returns the parent of child in the named ordering (the P-edge),
// if any.
func (db *Database) ParentOf(ordering string, child value.Ref) (value.Ref, bool) {
	parent, _, ok, _ := db.ChildPosition(ordering, child)
	return parent, ok
}

// IndexOf returns the ordinal position (0-based) of child among its
// siblings in the named ordering: a by_child point read, then the count
// of smaller (parent, rank) keys from the index's order statistics.
func (db *Database) IndexOf(ordering string, child value.Ref) (int, error) {
	o, err := db.ordering(ordering)
	if err != nil {
		return 0, err
	}
	var n int
	err = db.read(context.Background(), func(v View) error {
		_, parent, rank, ok, err := v.position(o, child)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("model: @%d is not a child in ordering %s", child, ordering)
		}
		lo, hi := siblingRange(parent, rank, true)
		n, err = v.count(o, lo, hi)
		return err
	})
	return n, err
}

// BeforeIn implements the before operator of §5.6 (see View.BeforeIn).
func (db *Database) BeforeIn(ordering string, a, b value.Ref) (bool, error) {
	return read1(db, func(v View) (bool, error) { return v.BeforeIn(ordering, a, b) })
}

// AfterIn implements the after operator of §5.6.
func (db *Database) AfterIn(ordering string, a, b value.Ref) (bool, error) {
	return db.BeforeIn(ordering, b, a)
}

// UnderIn implements the under operator of §5.6: true iff child's P-edge
// in the ordering points at parent.
func (db *Database) UnderIn(ordering string, child, parent value.Ref) (bool, error) {
	return read1(db, func(v View) (bool, error) { return v.UnderIn(ordering, child, parent) })
}

// ChildPosition returns child's P-edge parent and rank in the named
// ordering, with ok false if child is not placed in it: one by_child
// point read.
func (db *Database) ChildPosition(ordering string, child value.Ref) (parent value.Ref, rank int64, ok bool, err error) {
	err = db.read(context.Background(), func(v View) (err error) {
		parent, rank, ok, err = v.ChildPosition(ordering, child)
		return err
	})
	return
}

// SiblingsBefore returns, in sibling order, the children that precede
// child under its parent in the named ordering (see View.SiblingsBefore).
func (db *Database) SiblingsBefore(ordering string, child value.Ref) ([]value.Ref, error) {
	return read1(db, func(v View) ([]value.Ref, error) { return v.SiblingsBefore(ordering, child) })
}

// SiblingsAfter returns, in sibling order, the children that follow
// child under its parent in the named ordering.
func (db *Database) SiblingsAfter(ordering string, child value.Ref) ([]value.Ref, error) {
	return read1(db, func(v View) ([]value.Ref, error) { return v.SiblingsAfter(ordering, child) })
}

// NextSibling returns the sibling immediately after child, if any.
func (db *Database) NextSibling(ordering string, child value.Ref) (value.Ref, bool) {
	sib, _ := read1(db, func(v View) (value.Ref, error) { return v.adjacent(ordering, child, false) })
	return sib, sib != 0
}

// PrevSibling returns the sibling immediately before child, if any.
func (db *Database) PrevSibling(ordering string, child value.Ref) (value.Ref, bool) {
	sib, _ := read1(db, func(v View) (value.Ref, error) { return v.adjacent(ordering, child, true) })
	return sib, sib != 0
}

// Walk traverses the subtree rooted at root in the named ordering (see
// View.Walk) in one read-only transaction, whose shared lock on the
// ordering is held while fn runs: fn must not write the ordering.
func (db *Database) Walk(ordering string, root value.Ref, fn func(ref value.Ref, depth int) bool) error {
	return db.read(context.Background(), func(v View) error { return v.Walk(ordering, root, fn) })
}

// Roots returns the entities that are parents in the ordering but not
// children of any other entity in the same ordering, in surrogate order.
func (db *Database) Roots(ordering string) ([]value.Ref, error) {
	return read1(db, func(v View) ([]value.Ref, error) { return v.Roots(ordering) })
}
