package model

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/storage"
	"repro/internal/value"
)

// ixByParentRank is the secondary index every ordering relation carries
// over (parent, rank): snapshot reads derive sibling order from it
// instead of the in-memory sibling trees, which always reflect the
// latest committed state rather than the pinned CSN.
const ixByParentRank = "by_parent_rank"

// keySuffixMax is a suffix strictly greater than any row-id or rank
// continuation an index key can carry (row-id suffixes are 8 bytes, a
// rank continuation is at most 17+8), making enc(prefix)+keySuffixMax an
// exclusive upper bound for "all keys starting with enc(prefix)".
var keySuffixMax = bytes.Repeat([]byte{0xFF}, 26)

// prefixSuccessor returns the smallest byte string greater than every
// string with prefix p, or nil (unbounded) when no such string exists.
func prefixSuccessor(p []byte) []byte {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xFF {
			s := append([]byte(nil), p[:i+1]...)
			s[i]++
			return s
		}
	}
	return nil
}

// Snap is a model-level read snapshot: entity, relationship, and
// ordering reads against one pinned CSN, acquiring no locks.  All
// methods observe the same committed prefix of history, so an ordering
// traversal can never see a torn move (child detached but not yet
// re-attached) the way an unsynchronized pair of locking reads could.
//
// The schema is NOT versioned: a Snap resolves entity types, orderings,
// and index names against the current catalog (DDL is rare,
// model-serialized, and additive in practice).  Data reads — instances,
// relationship tuples, sibling structure — are fully snapshot-consistent.
type Snap struct {
	db *Database
	s  *storage.Snap
}

// BeginSnapshot pins the current commit sequence number and returns a
// lock-free model read view.  Close it promptly: an open snapshot holds
// back version garbage collection.
func (db *Database) BeginSnapshot(ctx context.Context) (*Snap, error) {
	s, err := db.store.BeginSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	return &Snap{db: db, s: s}, nil
}

// CSN returns the snapshot's pinned commit sequence number.
func (s *Snap) CSN() uint64 { return s.s.CSN() }

// Close unpins the snapshot.
func (s *Snap) Close() {
	if s != nil {
		s.s.Close()
	}
}

// Instances is Database.Instances against the snapshot: every instance
// of the named entity type visible at the pinned CSN, in creation
// order.
func (s *Snap) Instances(typeName string, fn func(ref value.Ref, attrs value.Tuple) bool) error {
	if _, ok := s.db.EntityType(typeName); !ok {
		return fmt.Errorf("%w: %s", ErrNoEntityType, typeName)
	}
	return s.s.Scan(entPrefix+typeName, func(_ storage.RowID, t value.Tuple) bool {
		return fn(t[0].AsRef(), t[1:])
	})
}

// Instance returns entity ref's attributes as of the snapshot, ok false
// unless ref is a typeName instance visible at the pin: a point read on
// the by_ref index, which (unlike the directory) sees later deletes.
func (s *Snap) Instance(typeName string, ref value.Ref) (value.Tuple, bool, error) {
	var kb [16]byte
	t, ok, err := s.s.IndexGet(entPrefix+typeName, "by_ref", value.AppendKey(kb[:0], value.RefVal(ref)))
	if !ok || err != nil {
		return nil, false, err
	}
	return t[1:], true, nil
}

// InstancesRange is Database.InstancesRange against the snapshot.
func (s *Snap) InstancesRange(typeName, indexName string, lo, hi []byte, reverse bool, fn func(ref value.Ref, attrs value.Tuple) bool) error {
	if _, ok := s.db.EntityType(typeName); !ok {
		return fmt.Errorf("%w: %s", ErrNoEntityType, typeName)
	}
	return s.s.IndexRange(entPrefix+typeName, indexName, lo, hi, reverse, func(_ storage.RowID, t value.Tuple) bool {
		return fn(t[0].AsRef(), t[1:])
	})
}

// RelationshipTuples is Database.RelationshipTuples against the
// snapshot: the raw role+attribute tuples of the named relationship
// type visible at the pinned CSN.
func (s *Snap) RelationshipTuples(name string, fn func(t value.Tuple) bool) error {
	if _, ok := s.db.RelationshipType(name); !ok {
		return fmt.Errorf("%w: %s", ErrNoRelationship, name)
	}
	return s.s.Scan(relPrefix+name, func(_ storage.RowID, t value.Tuple) bool {
		return fn(t)
	})
}

// ChildPosition returns child's P-edge parent and rank in the named
// ordering as of the snapshot, with ok false if child was not placed in
// it.  It is a point read on the ordering relation's unique by_child
// index rather than the in-memory runtime, which tracks the latest state
// only.
func (s *Snap) ChildPosition(ordering string, child value.Ref) (parent value.Ref, rank int64, ok bool, err error) {
	if _, exists := s.db.OrderingByName(ordering); !exists {
		return 0, 0, false, fmt.Errorf("%w: %s", ErrNoOrdering, ordering)
	}
	var kb [16]byte
	t, ok, err := s.s.IndexGet(ordPrefix+ordering, "by_child", value.AppendKey(kb[:0], value.RefVal(child)))
	if !ok || err != nil {
		return 0, 0, false, err
	}
	return t[0].AsRef(), t[2].AsInt(), true, nil
}

// Children returns the ordered children of parent in the named ordering
// as of the snapshot, via a prefix range over the by_parent_rank index
// (key order is rank order).
func (s *Snap) Children(ordering string, parent value.Ref) ([]value.Ref, error) {
	if _, ok := s.db.OrderingByName(ordering); !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoOrdering, ordering)
	}
	lo := value.AppendKey(nil, value.RefVal(parent))
	hi := append(append([]byte(nil), lo...), keySuffixMax...)
	var out []value.Ref
	err := s.s.IndexRange(ordPrefix+ordering, ixByParentRank, lo, hi, false,
		func(_ storage.RowID, t value.Tuple) bool {
			out = append(out, t[1].AsRef())
			return true
		})
	return out, err
}

// SiblingsBefore returns, in sibling order, the children preceding
// child under its parent in the named ordering as of the snapshot.
func (s *Snap) SiblingsBefore(ordering string, child value.Ref) ([]value.Ref, error) {
	return s.siblingRange(ordering, child, true)
}

// SiblingsAfter returns, in sibling order, the children following child
// under its parent in the named ordering as of the snapshot.
func (s *Snap) SiblingsAfter(ordering string, child value.Ref) ([]value.Ref, error) {
	return s.siblingRange(ordering, child, false)
}

func (s *Snap) siblingRange(ordering string, child value.Ref, before bool) ([]value.Ref, error) {
	parent, rank, ok, err := s.ChildPosition(ordering, child)
	if err != nil || !ok {
		return nil, err
	}
	pk := value.AppendKey(nil, value.RefVal(parent))
	mid := value.AppendKey(append([]byte(nil), pk...), value.Int(rank))
	var lo, hi []byte
	if before {
		// [parent, parent+rank): every sibling with a smaller rank.
		lo, hi = pk, mid
	} else {
		// (parent+rank+∞, parent+∞): past child's own key (whatever its
		// row-id suffix), up to the end of the parent's prefix.
		lo = append(mid, keySuffixMax...)
		hi = prefixSuccessor(pk)
	}
	var out []value.Ref
	err = s.s.IndexRange(ordPrefix+ordering, ixByParentRank, lo, hi, false,
		func(_ storage.RowID, t value.Tuple) bool {
			out = append(out, t[1].AsRef())
			return true
		})
	return out, err
}
