package model

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/value"
)

// BulkEntity describes one entity to create in a BulkInsert batch.
// RefAttrs assigns reference attributes whose target is another entity
// of the same batch, identified by its index; the target must precede
// this entity in the batch (its surrogate is assigned first).
type BulkEntity struct {
	Type     string
	Attrs    Attrs
	RefAttrs map[string]int
}

// BulkEdge describes one ordering append in a BulkInsert batch: the
// child (an index into the batch's entities) is appended after the
// current last sibling under the parent.  The parent is either another
// in-batch entity (Parent >= 0) or a pre-existing one (Parent < 0 and
// ExternalParent set).
type BulkEdge struct {
	Ordering       string
	Parent         int // index into the batch; < 0 means ExternalParent
	ExternalParent value.Ref
	Child          int // index into the batch
}

// BulkInsert creates a batch of entities and ordering edges in a single
// storage transaction — one commit (one group-commit round, one fsync)
// for the whole batch, against the one-transaction-per-entity-and-edge
// cost of NewEntity + InsertChild.  It is the streaming bulk loader's
// write path.
//
// Every edge's child must be an in-batch entity, so the §5.5
// well-formedness checks reduce to type checks: a freshly created child
// has no prior parent, and no P-cycle can pass through it.  Edges
// always append (model.Last()); ranks continue from the parent's last
// stored child with the standard gap, so an ordering that takes edges
// under an ExternalParent must keep its (parent, rank) index live (not
// deferred).  The transaction X-locks every relation the batch writes
// before it reads any.  On error nothing is committed.
func (db *Database) BulkInsert(entities []BulkEntity, edges []BulkEdge) ([]value.Ref, error) {
	// Validate and build tuples before touching storage.  In-batch
	// reference attributes are recorded as patches and resolved once the
	// target's surrogate has been assigned inside the transaction.
	type refPatch struct {
		tupleIx int
		target  int
	}
	types := make([]*EntityType, len(entities))
	tuples := make([]value.Tuple, len(entities))
	patches := make([][]refPatch, len(entities))
	var locks []string
	for i, be := range entities {
		et, err := db.entityType(be.Type)
		if err != nil {
			return nil, err
		}
		for name := range be.Attrs {
			if _, ok := et.AttrIndex(name); !ok {
				return nil, fmt.Errorf("%w: %s.%s", ErrNoAttribute, be.Type, name)
			}
		}
		for name, target := range be.RefAttrs {
			j, ok := et.AttrIndex(name)
			if !ok {
				return nil, fmt.Errorf("%w: %s.%s", ErrNoAttribute, be.Type, name)
			}
			if target < 0 || target >= i {
				return nil, fmt.Errorf("model: bulk ref attr %s.%s must target an earlier batch entity, got %d", be.Type, name, target)
			}
			patches[i] = append(patches[i], refPatch{tupleIx: j + 1, target: target})
		}
		types[i] = et
		tuples[i] = et.tuple(0, be.Attrs)
		locks = append(locks, et.rel)
	}
	orders := make([]*Ordering, len(edges))
	for i, e := range edges {
		o, err := db.ordering(e.Ordering)
		if err != nil {
			return nil, err
		}
		if e.Child < 0 || e.Child >= len(entities) {
			return nil, fmt.Errorf("model: bulk edge child %d out of range", e.Child)
		}
		if !o.hasChild(entities[e.Child].Type) {
			return nil, fmt.Errorf("%w: %s under ordering %s", ErrWrongChildType, entities[e.Child].Type, e.Ordering)
		}
		if e.Parent >= len(entities) {
			return nil, fmt.Errorf("model: bulk edge parent %d out of range", e.Parent)
		}
		if e.Parent >= 0 && entities[e.Parent].Type != o.Parent {
			return nil, fmt.Errorf("%w: %s is not parent type %s of ordering %s", ErrWrongParent, entities[e.Parent].Type, o.Parent, e.Ordering)
		}
		orders[i] = o
		locks = append(locks, o.rel)
	}
	slices.Sort(locks)
	locks = slices.Compact(locks)

	// lastRank tracks the running append rank per (ordering, parent) so
	// several appends under one parent inside the batch stay ordered.
	type opKey struct {
		ordering string
		parentIx int // -1 for external parents
		external value.Ref
	}
	refs := make([]value.Ref, len(entities))
	err := db.write(context.Background(), func(t Tx) error {
		for _, rel := range locks {
			if err := t.tx.LockExclusive(rel); err != nil {
				return err
			}
		}
		for i, et := range types {
			refs[i] = value.Ref(db.store.NextSeq("ref"))
			tuples[i][0] = value.RefVal(refs[i])
			for _, p := range patches[i] {
				tuples[i][p.tupleIx] = value.RefVal(refs[p.target])
			}
			if _, err := t.tx.Insert(et.rel, tuples[i]); err != nil {
				return err
			}
		}
		lastRank := make(map[opKey]int64)
		for i, e := range edges {
			o := orders[i]
			key := opKey{ordering: o.Name, parentIx: e.Parent}
			parent := e.ExternalParent
			if e.Parent >= 0 {
				parent = refs[e.Parent]
			} else {
				key.parentIx, key.external = -1, parent
			}
			rank, seeded := lastRank[key]
			switch {
			case seeded:
				rank += rankGap
			case e.Parent < 0:
				if err := t.checkParent(o, parent); err != nil {
					return err
				}
				lo, hi := refRange(parent)
				if last, err := t.first(o, lo, hi, true); err != nil {
					return err
				} else if !last.IsZero() {
					rank = last.Col(2).AsInt() + rankGap
				}
			}
			lastRank[key] = rank
			if _, err := t.tx.Insert(o.rel, value.Tuple{
				value.RefVal(parent), value.RefVal(refs[e.Child]), value.Int(rank),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return refs, nil
}
