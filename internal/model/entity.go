package model

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/storage"
	"repro/internal/value"
)

// Attrs is a convenience map for entity attribute values by name.
type Attrs map[string]value.Value

// Tx is the model bound to one storage transaction: its reads (the
// embedded View) take shared locks and see the transaction's own writes,
// and its mutations join the transaction, so a caller that runs several
// of them commits once.  Database's mutators are one-transaction
// wrappers around these methods.
//
// Lock order: entity relations first — X on those a mutation writes,
// S on those it only checks (a parent's or a role's type) — then
// orderings, then relationships, each X-locked before it is read (a
// shared lock upgraded to exclusive by two transactions at once
// deadlocks every time).
type Tx struct {
	View
	tx *storage.Tx
}

// In binds the model to a storage transaction.
func (db *Database) In(tx *storage.Tx) Tx { return Tx{View{db, tx}, tx} }

// write runs fn in one storage transaction, retried whole on deadlock.
func (db *Database) write(ctx context.Context, fn func(t Tx) error) error {
	return db.store.RunCtx(ctx, func(tx *storage.Tx) error { return fn(db.In(tx)) })
}

// LockType takes the exclusive lock on typeName's instance relation, for
// a statement that reads the instances it is about to change.
func (t Tx) LockType(typeName string) error {
	et, err := t.db.entityType(typeName)
	if err != nil {
		return err
	}
	return t.tx.LockExclusive(et.rel)
}

// LockDelete takes, before a statement reads anything, the locks a
// delete of typeName instances qualified by reads of the named entity
// types, orderings and relationship types needs, in the order every
// typed mutation keeps: the instance relation X; the entity types read,
// S; then the orderings, then the relationships — X those typeName takes
// part in (partsOf, as Delete locks them), S the others read — each class
// in name order.  A qualification reading one of typeName's orderings
// thus never upgrades S to X, and no read of an entity type follows an
// ordering or relationship lock.
func (t Tx) LockDelete(typeName string, reads ...string) error {
	et, err := t.db.entityType(typeName)
	if err != nil {
		return err
	}
	if err := t.tx.LockExclusive(et.rel); err != nil {
		return err
	}
	type lock struct {
		name, rel string
		x         bool
	}
	var ents, ords, rels []lock
	orders, rts := t.db.partsOf(typeName)
	for _, o := range orders {
		ords = append(ords, lock{o.Name, o.rel, true})
	}
	for _, rt := range rts {
		rels = append(rels, lock{rt.Name, rt.rel, true})
	}
	for _, n := range reads {
		if e, ok := t.db.EntityType(n); ok {
			ents = append(ents, lock{n, e.rel, false})
		} else if o, ok := t.db.OrderingByName(n); ok {
			ords = append(ords, lock{n, o.rel, false})
		} else if rt, ok := t.db.RelationshipType(n); ok {
			rels = append(rels, lock{n, rt.rel, false})
		}
	}
	for _, class := range [][]lock{ents, ords, rels} {
		// Name order, X before S on one name: S after X is a no-op.
		slices.SortFunc(class, func(a, b lock) int {
			if c := strings.Compare(a.name, b.name); c != 0 || a.x == b.x {
				return c
			}
			if a.x {
				return -1
			}
			return 1
		})
		for _, l := range class {
			if l.x {
				err = t.tx.LockExclusive(l.rel)
			} else {
				err = t.tx.LockShared(l.rel)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// lockDelete takes Delete's locks for a resolved type — its instance
// relation, then the orderings and relationships it takes part in, X in
// name order — and returns partsOf.
func (t Tx) lockDelete(et *EntityType) ([]*Ordering, []*RelationshipType, error) {
	if err := t.tx.LockExclusive(et.rel); err != nil {
		return nil, nil, err
	}
	orders, rels := t.db.partsOf(et.Name)
	for _, o := range orders {
		if err := t.tx.LockExclusive(o.rel); err != nil {
			return nil, nil, err
		}
	}
	for _, rt := range rels {
		if err := t.tx.LockExclusive(rt.rel); err != nil {
			return nil, nil, err
		}
	}
	return orders, rels, nil
}

// lockedType resolves the type of ref for a write and X-locks its
// instance relation before any read of it.  The live-tree hint names
// the type; the caller's own point read under the lock confirms it.
// When the hint misses, locate's probe of every type decides.
func (t Tx) lockedType(ref value.Ref) (*EntityType, error) {
	if et := t.db.liveType(ref); et != nil {
		return et, t.tx.LockExclusive(et.rel)
	}
	et, _, _, err := t.locate(ref)
	return et, err
}

// NewEntity creates an entity instance of the named type with the given
// attribute values (missing attributes are null) and returns its
// surrogate reference.
func (t Tx) NewEntity(typeName string, attrs Attrs) (value.Ref, error) {
	et, err := t.db.entityType(typeName)
	if err != nil {
		return 0, err
	}
	for name := range attrs {
		if _, ok := et.AttrIndex(name); !ok {
			return 0, fmt.Errorf("%w: %s.%s", ErrNoAttribute, typeName, name)
		}
	}
	ref := value.Ref(t.db.store.NextSeq("ref"))
	_, err = t.tx.Insert(et.rel, et.tuple(ref, attrs))
	return ref, err
}

// tuple builds the stored tuple of an instance: the surrogate, then the
// attributes in schema order, null where attrs has no value.
func (et *EntityType) tuple(ref value.Ref, attrs Attrs) value.Tuple {
	t := make(value.Tuple, len(et.Attrs)+1)
	t[0] = value.RefVal(ref)
	for i, a := range et.Attrs {
		if v, ok := attrs[a.Name]; ok {
			t[i+1] = v
		} else {
			t[i+1] = value.Null
		}
	}
	return t
}

// Update sets attributes of the typeName instance ref.
func (t Tx) Update(typeName string, ref value.Ref, attrs Attrs) error {
	et, err := t.db.entityType(typeName)
	if err != nil {
		return err
	}
	if err := t.tx.LockExclusive(et.rel); err != nil {
		return err
	}
	return t.update(et, ref, attrs)
}

// update sets attributes of ref, an et instance whose relation the
// transaction has X-locked.
func (t Tx) update(et *EntityType, ref value.Ref, attrs Attrs) error {
	id, row, ok, err := t.instance(et, ref)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s @%d", ErrNoEntity, et.Name, ref)
	}
	nt := row.Tuple()
	for name, v := range attrs {
		i, ok := et.AttrIndex(name)
		if !ok {
			return fmt.Errorf("%w: %s.%s", ErrNoAttribute, et.Name, name)
		}
		nt[i+1] = v
	}
	return t.tx.Update(et.rel, id, nt)
}

// Delete removes the typeName instance ref.  It must not be a parent
// with children in any ordering (ErrHasChildren); it is detached from
// the orderings in which it is a child, and the relationship instances
// that reference it are deleted.
func (t Tx) Delete(typeName string, ref value.Ref) error {
	et, err := t.db.entityType(typeName)
	if err != nil {
		return err
	}
	if err := t.tx.LockExclusive(et.rel); err != nil {
		return err
	}
	return t.delete(et, ref)
}

// delete removes ref, an et instance whose relation the transaction has
// X-locked.  Only the orderings and relationships whose declared types
// admit et are consulted.
func (t Tx) delete(et *EntityType, ref value.Ref) error {
	id, _, ok, err := t.instance(et, ref)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s @%d", ErrNoEntity, et.Name, ref)
	}
	orders, rels, err := t.lockDelete(et)
	if err != nil {
		return err
	}
	for _, o := range orders {
		if o.Parent == et.Name {
			lo, hi := refRange(ref)
			if kid, err := t.first(o, lo, hi, false); err != nil {
				return err
			} else if !kid.IsZero() {
				return fmt.Errorf("%w: @%d in ordering %q", ErrHasChildren, ref, o.Name)
			}
		}
		if !o.hasChild(et.Name) {
			continue
		}
		if eid, _, _, placed, err := t.position(o, ref); err != nil {
			return err
		} else if placed {
			if err := t.tx.Delete(o.rel, eid); err != nil {
				return err
			}
		}
	}
	for _, rt := range rels {
		var doomed []storage.RowID
		lo, hi := refRange(ref)
		for _, r := range rt.Roles {
			if r.EntityType != et.Name {
				continue
			}
			if err := t.r.IndexRange(rt.rel, "by_"+r.Name, lo, hi, false, func(rid storage.RowID, _ value.Row) bool {
				if !slices.Contains(doomed, rid) {
					doomed = append(doomed, rid)
				}
				return true
			}); err != nil {
				return err
			}
		}
		for _, rid := range doomed {
			if err := t.tx.Delete(rt.rel, rid); err != nil {
				return err
			}
		}
	}
	return t.tx.Delete(et.rel, id)
}

// partsOf returns the orderings in which typeName is the parent or a
// child type, and the relationships with a role of typeName, in name
// order so concurrent deletes lock them in one order.
func (db *Database) partsOf(typeName string) ([]*Ordering, []*RelationshipType) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var orders []*Ordering
	for _, o := range db.orderings {
		if o.Parent == typeName || o.hasChild(typeName) {
			orders = append(orders, o)
		}
	}
	var rels []*RelationshipType
	for _, rt := range db.relationships {
		for _, r := range rt.Roles {
			if r.EntityType == typeName {
				rels = append(rels, rt)
				break
			}
		}
	}
	slices.SortFunc(orders, func(a, b *Ordering) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(rels, func(a, b *RelationshipType) int { return strings.Compare(a.Name, b.Name) })
	return orders, rels
}

// DeleteSubtree removes ref and, recursively, every child beneath it in
// every ordering ("cascade" deletion of a hierarchy).
func (t Tx) DeleteSubtree(ref value.Ref) error {
	et, err := t.lockedType(ref)
	if err != nil {
		return err
	}
	// Every entity relation the cascade can reach is X-locked before the
	// first ordering, in the lock order every other mutation keeps.
	for _, sub := range t.db.descendantTypes(et) {
		if err := t.tx.LockExclusive(sub.rel); err != nil {
			return err
		}
	}
	return t.deleteSubtree(et, ref)
}

func (t Tx) deleteSubtree(et *EntityType, ref value.Ref) error {
	orders, _ := t.db.partsOf(et.Name)
	for _, o := range orders {
		if o.Parent != et.Name {
			continue
		}
		if err := t.tx.LockExclusive(o.rel); err != nil {
			return err
		}
		lo, hi := refRange(ref)
		kids, err := t.childRefs(o, lo, hi)
		if err != nil {
			return err
		}
		for _, k := range kids {
			ket, err := t.lockedType(k)
			if err == nil {
				err = t.deleteSubtree(ket, k)
			}
			if err != nil {
				return err
			}
		}
	}
	return t.delete(et, ref)
}

// descendantTypes returns the entity types that can sit below an et
// instance in some ordering, breadth-first from et's children (orderings
// in name order), so a parent type precedes its child types.
func (db *Database) descendantTypes(et *EntityType) []*EntityType {
	db.mu.RLock()
	defer db.mu.RUnlock()
	orders := make([]*Ordering, 0, len(db.orderings))
	for _, o := range db.orderings {
		orders = append(orders, o)
	}
	slices.SortFunc(orders, func(a, b *Ordering) int { return strings.Compare(a.Name, b.Name) })
	var out []*EntityType
	seen := map[string]bool{et.Name: true}
	for q := []string{et.Name}; len(q) > 0; q = q[1:] {
		for _, o := range orders {
			if o.Parent != q[0] {
				continue
			}
			for _, c := range o.Children {
				if !seen[c] {
					seen[c] = true
					out = append(out, db.entities[c])
					q = append(q, c)
				}
			}
		}
	}
	return out
}

// NewEntity creates an entity instance of the named type with the given
// attribute values (missing attributes are null) and returns its
// surrogate reference.
func (db *Database) NewEntity(typeName string, attrs Attrs) (value.Ref, error) {
	return db.NewEntityCtx(context.Background(), typeName, attrs)
}

// NewEntityCtx is NewEntity under a context: a blocked lock wait in the
// underlying transaction aborts with txn.ErrCanceled when ctx is
// canceled or its deadline passes.
func (db *Database) NewEntityCtx(ctx context.Context, typeName string, attrs Attrs) (value.Ref, error) {
	var ref value.Ref
	err := db.write(ctx, func(t Tx) (err error) {
		ref, err = t.NewEntity(typeName, attrs)
		return err
	})
	return ref, err
}

// NewEntities creates n entities of the same type in a single
// transaction; attrs(i) supplies the attributes of the i'th.  It is the
// bulk-loading path used by score import.
func (db *Database) NewEntities(typeName string, n int, attrs func(i int) Attrs) ([]value.Ref, error) {
	refs := make([]value.Ref, n)
	err := db.write(context.Background(), func(t Tx) error {
		for i := range refs {
			var err error
			if refs[i], err = t.NewEntity(typeName, attrs(i)); err != nil {
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

// TypeOf returns the entity type name of ref.  Refs carry no type, so
// where the expected type is known, Is is the cheaper check.
func (db *Database) TypeOf(ref value.Ref) (string, bool) {
	et, err := read1(db, func(v View) (*EntityType, error) {
		et, _, _, err := v.locate(ref)
		return et, err
	})
	if err != nil {
		return "", false
	}
	return et.Name, true
}

// Instance returns entity ref's attributes, ok false unless ref is an
// instance of typeName: one by_ref point read.
func (db *Database) Instance(typeName string, ref value.Ref) (value.Tuple, bool, error) {
	var t value.Tuple
	ok, err := read1(db, func(v View) (ok bool, err error) {
		t, ok, err = v.Instance(typeName, ref)
		return ok, err
	})
	return t, ok, err
}

// InstanceRow is Instance's stored row: the surrogate, then the
// attributes (AttrsOf splits a decoded one).
func (db *Database) InstanceRow(typeName string, ref value.Ref) (value.Row, bool, error) {
	var row value.Row
	ok, err := read1(db, func(v View) (ok bool, err error) {
		row, ok, err = v.InstanceRow(typeName, ref)
		return ok, err
	})
	return row, ok, err
}

// Is reports whether ref is an instance of typeName: one by_ref point
// read.
func (db *Database) Is(ref value.Ref, typeName string) bool {
	_, ok, _ := db.InstanceRow(typeName, ref)
	return ok
}

// Exists reports whether ref identifies a live entity.
func (db *Database) Exists(ref value.Ref) bool {
	_, ok := db.TypeOf(ref)
	return ok
}

// Attr returns one attribute value of an entity.
func (db *Database) Attr(ref value.Ref, attr string) (value.Value, error) {
	return read1(db, func(v View) (value.Value, error) { return v.Attr(ref, attr) })
}

// AttrTuple returns all attribute values of an entity, in schema order
// (excluding the surrogate).
func (db *Database) AttrTuple(ref value.Ref) (value.Tuple, error) {
	return read1(db, func(v View) (value.Tuple, error) { return v.AttrTuple(ref) })
}

// SetAttr updates one attribute value of an entity.
func (db *Database) SetAttr(ref value.Ref, attr string, v value.Value) error {
	return db.SetAttrs(ref, Attrs{attr: v})
}

// SetAttrs updates several attributes of an entity in one transaction.
func (db *Database) SetAttrs(ref value.Ref, attrs Attrs) error {
	return db.write(context.Background(), func(t Tx) error {
		et, err := t.lockedType(ref)
		if err != nil {
			return err
		}
		return t.update(et, ref, attrs)
	})
}

// DeleteEntity removes an entity instance.  The entity must not be a
// parent with children in any ordering (ErrHasChildren) — callers that
// want cascade semantics use DeleteSubtree.  The entity is detached from
// any orderings in which it is a child, and relationship instances that
// reference it are deleted, all in one transaction.
func (db *Database) DeleteEntity(ref value.Ref) error {
	return db.write(context.Background(), func(t Tx) error {
		et, err := t.lockedType(ref)
		if err != nil {
			return err
		}
		return t.delete(et, ref)
	})
}

// DeleteSubtree removes an entity and, recursively, every child beneath
// it in every ordering, in one transaction.
func (db *Database) DeleteSubtree(ref value.Ref) error {
	return db.write(context.Background(), func(t Tx) error { return t.DeleteSubtree(ref) })
}

// Instances calls fn for every instance of the named entity type, in
// creation order, passing the surrogate and the attribute tuple
// (excluding the surrogate).  Iteration stops if fn returns false.
// attrs is decoded into one buffer the scan reuses: it is valid until
// fn returns, though its values, strings included, may be kept.
func (db *Database) Instances(typeName string, fn func(ref value.Ref, attrs value.Tuple) bool) error {
	return db.read(context.Background(), func(v View) error { return v.Instances(typeName, nil, decoded(fn)) })
}

// AttrIndexName returns the name of a secondary index on typeName whose
// leading key column is attr, if one exists.  The query planner uses it
// to turn a sargable predicate into an index range scan (§5.2's
// "ordering as a performance optimization").
func (db *Database) AttrIndexName(typeName, attr string) (string, bool) {
	rel := db.store.Relation(entPrefix + typeName)
	if rel == nil {
		return "", false
	}
	spec, ok := rel.IndexByColumn(attr)
	if !ok {
		return "", false
	}
	return spec.Name, true
}

// InstancesRangeCount returns the number of index entries of the named
// index on typeName within the encoded key range [lo, hi), computed from
// order statistics without scanning.  It returns -1 if the type or index
// does not exist.
func (db *Database) InstancesRangeCount(typeName, indexName string, lo, hi []byte) int {
	rel := db.store.Relation(entPrefix + typeName)
	if rel == nil {
		return -1
	}
	n, ok := rel.IndexRangeCount(indexName, lo, hi)
	if !ok {
		return -1
	}
	return n
}

// InstancesRange calls fn for instances of the named entity type whose
// index key falls in [lo, hi), in index key order (descending when
// reverse is set).  Like Instances it passes the surrogate and the
// attribute tuple, valid until fn returns; iteration stops if fn
// returns false.
func (db *Database) InstancesRange(typeName, indexName string, lo, hi []byte, reverse bool, fn func(ref value.Ref, attrs value.Tuple) bool) error {
	return db.read(context.Background(), func(v View) error {
		return v.InstancesRange(typeName, indexName, lo, hi, reverse, decoded(fn))
	})
}

// Count returns the number of instances of the named entity type.
func (db *Database) Count(typeName string) int {
	rel := db.store.Relation(entPrefix + typeName)
	if rel == nil {
		return 0
	}
	return rel.Len()
}

// FindByAttr returns the refs of instances of typeName whose attribute
// equals v, in creation order.
func (db *Database) FindByAttr(typeName, attr string, v value.Value) ([]value.Ref, error) {
	return read1(db, func(vw View) ([]value.Ref, error) { return vw.FindByAttr(typeName, attr, v) })
}
