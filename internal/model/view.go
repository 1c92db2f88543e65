package model

import (
	"context"
	"fmt"

	"repro/internal/storage"
	"repro/internal/value"
)

// ixByParentRank is the secondary index every ordering relation carries
// over (parent, rank): key order is sibling order, so a parent's
// children are one key range and a child's neighbours are the entries
// either side of its own key.
const ixByParentRank = "by_parent_rank"

// reader is the storage read surface the model's reads are written
// against.  A *storage.Tx provides it under shared locks and sees its
// own writes; a *storage.Snap provides it lock-free at a pinned CSN.
type reader interface {
	Scan(relName string, b *storage.Bounds, fn func(id storage.RowID, t value.Tuple) bool) error
	IndexRange(relName, indexName string, lo, hi []byte, reverse bool, fn func(id storage.RowID, t value.Tuple) bool) error
	IndexGet(relName, indexName string, key []byte) (storage.RowID, value.Tuple, bool, error)
}

// View is the model's read API bound to one storage reader: a
// transaction (Database.In) or a snapshot (Database.BeginSnapshot).
// Every Database read method is a View method run in a short read-only
// transaction, so there is one implementation of each read.
//
// The schema is not versioned: a View resolves entity types, orderings
// and index names against the current catalog.  Data reads — instances,
// relationship tuples, sibling structure — come from the reader.
type View struct {
	db *Database
	r  reader
}

// read runs fn against a short read-only transaction; its shared locks
// are released when fn returns.  A replica applies shipped transactions
// to its live rows without relation locks, and only its snapshots move
// from one applied transaction to the next, so there fn reads a
// snapshot.
func (db *Database) read(ctx context.Context, fn func(v View) error) error {
	if db.store.IsReplica() {
		s, err := db.BeginSnapshot(ctx)
		if err != nil {
			return err
		}
		defer s.Close()
		return fn(s.View)
	}
	return db.store.RunCtx(ctx, func(tx *storage.Tx) error { return fn(View{db, tx}) })
}

// live reports whether v reads through a transaction.  Under the shared
// lock its first read of a relation takes, the live index trees' order
// statistics are the transaction's view; a snapshot has no such
// statistics and counts by iterating.
func (v View) live() bool {
	_, ok := v.r.(*storage.Tx)
	return ok
}

// count returns the number of o's edges whose (parent, rank) key lies
// in [lo, hi).  The caller has already read o through v.
func (v View) count(o *Ordering, lo, hi []byte) (int, error) {
	if v.live() {
		n, _ := v.db.store.Relation(o.rel).IndexRangeCount(ixByParentRank, lo, hi)
		return n, nil
	}
	n := 0
	err := v.r.IndexRange(o.rel, ixByParentRank, lo, hi, false, func(storage.RowID, value.Tuple) bool {
		n++
		return true
	})
	return n, err
}

// read1 runs fn in a short read-only transaction and returns its
// result.
func read1[T any](db *Database, fn func(v View) (T, error)) (T, error) {
	var out T
	err := db.read(context.Background(), func(v View) (err error) {
		out, err = fn(v)
		return err
	})
	return out, err
}

// refKey appends the index key of a surrogate to dst.
func refKey(dst []byte, ref value.Ref) []byte { return value.AppendKey(dst, value.RefVal(ref)) }

// refRange returns the range of index keys that lead with ref's key —
// in the (parent, rank) index, ref's children: [key(ref), key(ref+1)).
// A ref key is a tag and eight big-endian bytes, so key(ref+1) follows
// every key under ref.
func refRange(ref value.Ref) (lo, hi []byte) {
	kb := make([]byte, 0, 18)
	lo = refKey(kb, ref)
	return lo, refKey(lo[len(lo):], ref+1)
}

// Snap is a model read view pinned at one CSN, acquiring no locks.  All
// its reads observe the same committed prefix of history, so an
// ordering traversal never sees a torn move.  Close it promptly: an
// open snapshot holds back version garbage collection.
type Snap struct {
	View
	s *storage.Snap
}

// BeginSnapshot pins the current commit sequence number and returns a
// lock-free model read view.
func (db *Database) BeginSnapshot(ctx context.Context) (*Snap, error) {
	s, err := db.store.BeginSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	return &Snap{View{db, s}, s}, nil
}

// CSN returns the snapshot's pinned commit sequence number.
func (s *Snap) CSN() uint64 { return s.s.CSN() }

// Close unpins the snapshot.
func (s *Snap) Close() {
	if s != nil {
		s.s.Close()
	}
}

// Instances calls fn for every instance of the named entity type, in
// creation order, with the surrogate and the attribute tuple (excluding
// the surrogate).  Iteration stops if fn returns false.  A non-nil b
// lets the scan skip pages (storage.Bounds); its columns count
// attributes, as attrs does.
func (v View) Instances(typeName string, b *storage.Bounds, fn func(ref value.Ref, attrs value.Tuple) bool) error {
	et, err := v.db.entityType(typeName)
	if err != nil {
		return err
	}
	sb := pastRef(b)
	err = v.r.Scan(et.rel, sb, func(_ storage.RowID, t value.Tuple) bool {
		return fn(t[0].AsRef(), t[1:])
	})
	if b != nil {
		b.Walked, b.Pages = sb.Walked, sb.Pages
	}
	return err
}

// pastRef returns b with its columns shifted past the surrogate that
// leads every stored entity tuple.
func pastRef(b *storage.Bounds) *storage.Bounds {
	if b == nil {
		return nil
	}
	sb := &storage.Bounds{Ints: make([]storage.Bound, len(b.Ints))}
	for i, bd := range b.Ints {
		bd.Col++
		sb.Ints[i] = bd
	}
	return sb
}

// InstancesRange calls fn for the instances of the named entity type
// whose key in the named index falls in [lo, hi), in key order
// (descending when reverse is set).
func (v View) InstancesRange(typeName, indexName string, lo, hi []byte, reverse bool, fn func(ref value.Ref, attrs value.Tuple) bool) error {
	et, err := v.db.entityType(typeName)
	if err != nil {
		return err
	}
	return v.r.IndexRange(et.rel, indexName, lo, hi, reverse, func(_ storage.RowID, t value.Tuple) bool {
		return fn(t[0].AsRef(), t[1:])
	})
}

// Instance returns entity ref's attributes, ok false unless ref is an
// instance of typeName: one by_ref point read.
func (v View) Instance(typeName string, ref value.Ref) (value.Tuple, bool, error) {
	et, err := v.db.entityType(typeName)
	if err != nil {
		return nil, false, err
	}
	_, t, ok, err := v.instance(et, ref)
	if !ok {
		return nil, false, err
	}
	return t[1:], true, nil
}

func (v View) instance(et *EntityType, ref value.Ref) (storage.RowID, value.Tuple, bool, error) {
	var kb [16]byte
	return v.r.IndexGet(et.rel, "by_ref", refKey(kb[:0], ref))
}

// locate finds ref's type and row.  Refs carry no type, so it probes
// the type whose live by_ref tree holds ref first and confirms through
// the reader; only when that misses does it ask every type.
func (v View) locate(ref value.Ref) (*EntityType, storage.RowID, value.Tuple, error) {
	hint := v.db.liveType(ref)
	if hint != nil {
		if id, t, ok, err := v.instance(hint, ref); ok || err != nil {
			return hint, id, t, err
		}
	}
	for _, et := range v.db.entityTypes() {
		if et == hint {
			continue
		}
		if id, t, ok, err := v.instance(et, ref); ok || err != nil {
			return et, id, t, err
		}
	}
	return nil, 0, nil, fmt.Errorf("%w: @%d", ErrNoEntity, ref)
}

// mistyped is the error for ref failing a typed check: ErrNoEntity if
// it is no entity, else wrong applied to the type it has.
func (v View) mistyped(ref value.Ref, wrong func(typ string) error) error {
	et, _, _, err := v.locate(ref)
	if err != nil {
		return err
	}
	return wrong(et.Name)
}

// Attr returns one attribute value of an entity.
func (v View) Attr(ref value.Ref, attr string) (value.Value, error) {
	et, _, t, err := v.locate(ref)
	if err != nil {
		return value.Null, err
	}
	i, ok := et.AttrIndex(attr)
	if !ok {
		return value.Null, fmt.Errorf("%w: %s.%s", ErrNoAttribute, et.Name, attr)
	}
	return t[i+1], nil
}

// AttrTuple returns all attribute values of an entity, in schema order
// (excluding the surrogate).
func (v View) AttrTuple(ref value.Ref) (value.Tuple, error) {
	_, _, t, err := v.locate(ref)
	if err != nil {
		return nil, err
	}
	return t[1:].Clone(), nil
}

// RelationshipTuples calls fn with the raw tuple (role refs then
// attributes) of every instance of the named relationship, skipping the
// pages b prunes (none when b is nil); b's columns index the raw tuple.
func (v View) RelationshipTuples(name string, b *storage.Bounds, fn func(t value.Tuple) bool) error {
	rt, err := v.db.relationship(name)
	if err != nil {
		return err
	}
	return v.r.Scan(rt.rel, b, func(_ storage.RowID, t value.Tuple) bool { return fn(t) })
}

// RelationshipRange calls fn with the raw tuple of every instance of
// the named relationship whose key in the named index falls in [lo, hi),
// in key order.
func (v View) RelationshipRange(name, indexName string, lo, hi []byte, fn func(t value.Tuple) bool) error {
	rt, err := v.db.relationship(name)
	if err != nil {
		return err
	}
	return v.r.IndexRange(rt.rel, indexName, lo, hi, false, func(_ storage.RowID, t value.Tuple) bool { return fn(t) })
}

// Related returns the instances of the relationship in which role is
// bound to ref.  With role == "" it returns instances where any role is
// bound to ref.
func (v View) Related(relationship, role string, ref value.Ref) ([]RelInstance, error) {
	rt, err := v.db.relationship(relationship)
	if err != nil {
		return nil, err
	}
	var out []RelInstance
	if role != "" {
		// The role's index holds exactly the rows binding it to ref.
		if _, ok := rt.RoleIndex(role); !ok {
			return nil, fmt.Errorf("model: relationship %s has no role %q", relationship, role)
		}
		lo, hi := refRange(ref)
		err := v.r.IndexRange(rt.rel, "by_"+role, lo, hi, false, func(_ storage.RowID, t value.Tuple) bool {
			out = append(out, rt.instance(t))
			return true
		})
		return out, err
	}
	err = v.r.Scan(rt.rel, nil, func(_ storage.RowID, t value.Tuple) bool {
		for i := range rt.Roles {
			if t[i].AsRef() == ref {
				out = append(out, rt.instance(t))
				break
			}
		}
		return true
	})
	return out, err
}

// position reads child's edge in ordering o: a point read on the
// ordering relation's unique by_child index.
func (v View) position(o *Ordering, child value.Ref) (id storage.RowID, parent value.Ref, rank int64, ok bool, err error) {
	var kb [16]byte
	id, t, ok, err := v.r.IndexGet(o.rel, "by_child", refKey(kb[:0], child))
	if !ok {
		return 0, 0, 0, false, err
	}
	return id, t[0].AsRef(), t[2].AsInt(), true, nil
}

// ChildPosition returns child's P-edge parent and rank in the named
// ordering, with ok false if child is not placed in it.  The query layer
// caches positions per statement and compares ranks directly.
func (v View) ChildPosition(ordering string, child value.Ref) (parent value.Ref, rank int64, ok bool, err error) {
	o, err := v.db.ordering(ordering)
	if err != nil {
		return 0, 0, false, err
	}
	_, parent, rank, ok, err = v.position(o, child)
	return parent, rank, ok, err
}

// childRefs collects the child column of the ordering edges in [lo, hi)
// of the (parent, rank) index, in key (sibling) order.
func (v View) childRefs(o *Ordering, lo, hi []byte) ([]value.Ref, error) {
	var out []value.Ref
	err := v.r.IndexRange(o.rel, ixByParentRank, lo, hi, false, func(_ storage.RowID, t value.Tuple) bool {
		out = append(out, t[1].AsRef())
		return true
	})
	return out, err
}

// Children returns the ordered children of parent in the named ordering:
// one range over the (parent, rank) index.
func (v View) Children(ordering string, parent value.Ref) ([]value.Ref, error) {
	o, err := v.db.ordering(ordering)
	if err != nil {
		return nil, err
	}
	lo, hi := refRange(parent)
	return v.childRefs(o, lo, hi)
}

// SiblingsBefore returns, in sibling order, the children that precede
// child under its parent in the named ordering — exactly the refs x for
// which `x before child` holds.  A ref that is not a child in the
// ordering has no siblings.
func (v View) SiblingsBefore(ordering string, child value.Ref) ([]value.Ref, error) {
	return v.siblings(ordering, child, true)
}

// SiblingsAfter returns, in sibling order, the children that follow
// child under its parent in the named ordering.
func (v View) SiblingsAfter(ordering string, child value.Ref) ([]value.Ref, error) {
	return v.siblings(ordering, child, false)
}

func (v View) siblings(ordering string, child value.Ref, before bool) ([]value.Ref, error) {
	o, err := v.db.ordering(ordering)
	if err != nil {
		return nil, err
	}
	_, parent, rank, ok, err := v.position(o, child)
	if !ok {
		return nil, err
	}
	lo, hi := siblingRange(parent, rank, before)
	return v.childRefs(o, lo, hi)
}

// siblingRange returns the by_parent_rank key range of the siblings
// before (or after) the child at rank under parent.  The ranks of one
// parent's children are distinct, and key(parent)+key(rank+1) follows
// every key of rank, whatever its row-id suffix.
func siblingRange(parent value.Ref, rank int64, before bool) (lo, hi []byte) {
	kb := make([]byte, 0, 9+17+9)
	p := refKey(kb, parent)
	if before {
		return p, value.AppendKey(p[:len(p):len(p)], value.Int(rank))
	}
	lo = value.AppendKey(p, value.Int(rank+1))
	return lo, refKey(lo[len(lo):], parent+1)
}

// adjacent returns the sibling immediately before (or after) child, or
// 0 if there is none.
func (v View) adjacent(ordering string, child value.Ref, before bool) (value.Ref, error) {
	o, err := v.db.ordering(ordering)
	if err != nil {
		return 0, err
	}
	_, parent, rank, ok, err := v.position(o, child)
	if !ok {
		return 0, err
	}
	lo, hi := siblingRange(parent, rank, before)
	t, err := v.first(o, lo, hi, before)
	if t == nil {
		return 0, err
	}
	return t[1].AsRef(), nil
}

// first returns the ordering edge with the smallest (largest, when last
// is set) key in [lo, hi), or nil if the range is empty.
func (v View) first(o *Ordering, lo, hi []byte, last bool) (t value.Tuple, err error) {
	err = v.r.IndexRange(o.rel, ixByParentRank, lo, hi, last, func(_ storage.RowID, row value.Tuple) bool {
		t = row
		return false
	})
	return t, err
}

// BeforeIn implements the before operator of §5.6: true iff a and b have
// the same parent in the ordering and a precedes b — two by_child point
// reads and a rank comparison.  Entities with different parents are
// not comparable and yield false.
func (v View) BeforeIn(ordering string, a, b value.Ref) (bool, error) {
	o, err := v.db.ordering(ordering)
	if err != nil {
		return false, err
	}
	_, pa, ra, okA, err := v.position(o, a)
	if !okA {
		return false, err
	}
	_, pb, rb, okB, err := v.position(o, b)
	return okB && pa == pb && ra < rb, err
}

// UnderIn implements the under operator of §5.6: true iff child's P-edge
// in the ordering points at parent.
func (v View) UnderIn(ordering string, child, parent value.Ref) (bool, error) {
	p, _, ok, err := v.ChildPosition(ordering, child)
	return ok && p == parent, err
}

// Walk traverses the subtree rooted at root in the named ordering,
// depth-first and in sibling order, calling fn with each entity and its
// depth (root is depth 0).  Traversal stops if fn returns false.  For
// recursive orderings (§5.5, beam groups) this is the natural structural
// traversal.
func (v View) Walk(ordering string, root value.Ref, fn func(ref value.Ref, depth int) bool) error {
	o, err := v.db.ordering(ordering)
	if err != nil {
		return err
	}
	var walk func(ref value.Ref, depth int) (bool, error)
	walk = func(ref value.Ref, depth int) (bool, error) {
		if !fn(ref, depth) {
			return false, nil
		}
		lo, hi := refRange(ref)
		kids, err := v.childRefs(o, lo, hi)
		for _, k := range kids {
			if more, err := walk(k, depth+1); !more || err != nil {
				return false, err
			}
		}
		return err == nil, err
	}
	_, err = walk(root, 0)
	return err
}

// Roots returns the entities that are parents in the ordering but not
// children of any other entity in the same ordering, in surrogate
// order: the (parent, rank) index lists parents in ref order, and each
// distinct parent is found by one seek past the previous one.
func (v View) Roots(ordering string) ([]value.Ref, error) {
	o, err := v.db.ordering(ordering)
	if err != nil {
		return nil, err
	}
	recursive := o.Recursive()
	var roots []value.Ref
	var lo []byte
	for {
		t, err := v.first(o, lo, nil, false)
		if t == nil || err != nil {
			return roots, err
		}
		p := t[0].AsRef()
		if recursive {
			if _, _, _, isChild, err := v.position(o, p); err != nil {
				return nil, err
			} else if isChild {
				_, lo = refRange(p)
				continue
			}
		}
		roots = append(roots, p)
		_, lo = refRange(p)
	}
}

// FindByAttr returns the refs of instances of typeName whose attribute
// equals val: the equality range of the attribute's index when it has
// one and val is of the attribute's kind, else a scan in creation
// order.
func (v View) FindByAttr(typeName, attr string, val value.Value) ([]value.Ref, error) {
	et, err := v.db.entityType(typeName)
	if err != nil {
		return nil, err
	}
	i, ok := et.AttrIndex(attr)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoAttribute, typeName, attr)
	}
	var out []value.Ref
	keep := func(ref value.Ref, attrs value.Tuple) bool {
		if attrs[i].Equal(val) {
			out = append(out, ref)
		}
		return true
	}
	if ix, ok := v.db.AttrIndexName(typeName, attr); ok && val.Kind() == et.Attrs[i].Kind {
		lo := value.AppendKey(nil, val)
		hi := storage.AppendKeyUpper(lo[:len(lo):len(lo)])
		return out, v.InstancesRange(typeName, ix, lo, hi, false, keep)
	}
	return out, v.Instances(typeName, nil, keep)
}
