// Package model implements the paper's data model: the entity-relationship
// model (Chen) extended with hierarchical ordering (§5).
//
// Entity types, relationship types, and orderings are declared in a
// schema; entity instances, relationship instances, and parent/child
// ordering edges are data.  Following §6.1 ("Storing the Schema Definition
// as Ordered Entities"), the schema itself is stored in catalog relations
// managed by the same storage engine as the data, blurring the
// schema/data distinction.
//
// Hierarchical ordering (§5.3–5.5) is the core extension.  An ordering
// groups an ordered set of child entities (of one or more types) under a
// parent entity.  The instance graph has P-edges (child → parent) and
// S-edges (sibling → next sibling).  Each ordering is one stored
// relation of (parent, child, rank) edges, with gap-based integer ranks
// 2^20 apart; its unique by_child index is the P-edge and its
// (parent, rank) index is the S-order, one key range per parent.  There
// is no sibling list and no in-memory copy of either index, so
//
//   - "a before b" (§5.6) is two by_child point reads and a rank
//     comparison,
//   - "the i'th child of p" is O(log n) from the index B-tree's order
//     statistics, and
//   - insertion at any position is O(log n), with a renumbering of one
//     parent's children, in the inserting transaction, when bisection
//     exhausts a rank gap.
//
// The model is a view over storage: every read is written once against
// a storage reader (a transaction or a snapshot, see View), and every
// mutation joins a storage transaction (see Tx), so a QUEL statement
// that changes many rows commits once.
//
// All five ordering forms of §5.5 are supported: multiple levels of
// hierarchy, multiple orderings under one parent, inhomogeneous
// orderings, multiple parents (one per ordering), and recursive orderings
// with the required P-cycle and S-cycle prevention.
package model

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/storage"
	"repro/internal/value"
)

// Catalog relation names.  The leading underscore keeps them clear of
// user entity names; they are themselves ordinary relations (§6.1).
const (
	catEntity       = "_ENTITY"
	catAttribute    = "_ATTRIBUTE"
	catRelationship = "_RELATIONSHIP"
	catOrdering     = "_ORDERING"
	catOrderChild   = "_ORDER_CHILD"
)

// Instance relation name prefixes.
const (
	entPrefix = "E$"
	relPrefix = "R$"
	ordPrefix = "O$"
)

// Errors returned by schema and instance operations.
var (
	ErrNoEntityType   = errors.New("model: no such entity type")
	ErrNoRelationship = errors.New("model: no such relationship type")
	ErrNoOrdering     = errors.New("model: no such ordering")
	ErrNoEntity       = errors.New("model: no such entity instance")
	ErrNoAttribute    = errors.New("model: no such attribute")
	ErrPCycle         = errors.New("model: ordering insertion would make an entity part of itself (P-cycle)")
	ErrSCycle         = errors.New("model: ordering insertion would place an entity before itself (S-cycle)")
	ErrWrongChildType = errors.New("model: entity type is not a child of this ordering")
	ErrWrongParent    = errors.New("model: entity type is not the parent of this ordering")
	ErrHasChildren    = errors.New("model: entity still has children in an ordering")
	ErrAlreadyChild   = errors.New("model: entity is already a child in this ordering")
	ErrNotSiblings    = errors.New("model: entities are not siblings in this ordering")
)

// EntityType describes one entity type of the schema.
type EntityType struct {
	Name  string
	Attrs []value.Field // user attributes (the stored relation prepends _ref)

	rel  string            // instance relation name
	live *storage.Relation // the instance relation, for liveType
}

// AttrIndex returns the position of the named attribute in Attrs.
func (et *EntityType) AttrIndex(name string) (int, bool) {
	for i, a := range et.Attrs {
		if strings.EqualFold(a.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// RelationshipType describes an "m to n" relationship (§5.1): named roles
// referencing entity types, plus optional attributes of the relationship
// itself.
type RelationshipType struct {
	Name  string
	Roles []Role
	Attrs []value.Field

	rel string // instance relation name
}

// Role is one leg of a relationship: the role name and the entity type it
// references.
type Role struct {
	Name       string
	EntityType string
}

// RoleIndex returns the position of the named role.
func (rt *RelationshipType) RoleIndex(name string) (int, bool) {
	for i, r := range rt.Roles {
		if strings.EqualFold(r.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// Ordering describes one hierarchical ordering (one define ordering
// statement, §5.4): an ordered set of children of the listed types under
// a parent of the given type.
type Ordering struct {
	Name     string
	Parent   string
	Children []string

	rel string // edge relation name
}

// Recursive reports whether the ordering's parent type is also one of its
// child types (§5.5, recursive ordering).
func (o *Ordering) Recursive() bool {
	for _, c := range o.Children {
		if c == o.Parent {
			return true
		}
	}
	return false
}

// hasChild reports whether typeName is a declared child type.
func (o *Ordering) hasChild(typeName string) bool {
	for _, c := range o.Children {
		if c == typeName {
			return true
		}
	}
	return false
}

// Database is a music-model database: a schema (entity types,
// relationships, orderings) plus instances, all persisted through a
// storage.DB.  The instances live only in storage; the Database holds
// the schema.
type Database struct {
	store *storage.DB

	// mu guards the schema maps below; data is guarded by storage's
	// relation locks.
	mu            sync.RWMutex
	entities      map[string]*EntityType
	typeList      []*EntityType // entities, in definition order
	relationships map[string]*RelationshipType
	orderings     map[string]*Ordering
	incipits      map[string]IncipitIndex

	autoOrder int // counter for auto-generated ordering names
}

// Open loads (or initializes) a model database on top of a storage DB.
func Open(store *storage.DB) (*Database, error) {
	db := &Database{
		store:         store,
		entities:      make(map[string]*EntityType),
		relationships: make(map[string]*RelationshipType),
		orderings:     make(map[string]*Ordering),
	}
	if err := db.ensureCatalog(); err != nil {
		return nil, err
	}
	if err := db.load(); err != nil {
		return nil, err
	}
	return db, nil
}

// Store exposes the underlying storage engine (used by the query layer
// for scans and by checkpointing).
func (db *Database) Store() *storage.DB { return db.store }

// InstanceRelation returns the name of the storage relation holding the
// instances of an entity type.  The relation's first column is the
// surrogate (_ref); the remaining columns are the type's attributes.
func (db *Database) InstanceRelation(typeName string) string { return entPrefix + typeName }

// RelationshipRelation returns the name of the storage relation holding
// a relationship's tuples: its role refs, then its attributes.  Each
// role is indexed as by_<role>.
func (db *Database) RelationshipRelation(name string) string { return relPrefix + name }

// OrderingRelation returns the name of the storage relation holding an
// ordering's (parent, child, rank) edges.  Bulk loaders use it to defer
// and rebuild ordering indexes around a batch load.
func (db *Database) OrderingRelation(name string) string { return ordPrefix + name }

// ensureCatalog creates the catalog relations if they do not exist.
func (db *Database) ensureCatalog() error {
	mk := func(name string, fields ...value.Field) error {
		if db.store.Relation(name) != nil {
			return nil
		}
		_, err := db.store.CreateRelation(name, value.NewSchema(fields...))
		return err
	}
	if err := mk(catEntity,
		value.Field{Name: "entity_name", Kind: value.KindString}); err != nil {
		return err
	}
	if err := mk(catAttribute,
		value.Field{Name: "owner", Kind: value.KindString},
		value.Field{Name: "owner_kind", Kind: value.KindString},
		value.Field{Name: "attribute_name", Kind: value.KindString},
		value.Field{Name: "attribute_type", Kind: value.KindString},
		value.Field{Name: "ref_type", Kind: value.KindString},
		value.Field{Name: "pos", Kind: value.KindInt}); err != nil {
		return err
	}
	if err := mk(catRelationship,
		value.Field{Name: "relationship_name", Kind: value.KindString}); err != nil {
		return err
	}
	if err := mk(catOrdering,
		value.Field{Name: "order_name", Kind: value.KindString},
		value.Field{Name: "order_parent", Kind: value.KindString}); err != nil {
		return err
	}
	return mk(catOrderChild,
		value.Field{Name: "ordering", Kind: value.KindString},
		value.Field{Name: "child", Kind: value.KindString},
		value.Field{Name: "pos", Kind: value.KindInt})
}

// load rebuilds the schema from the catalog relations.  It reads no
// instance rows: the ref sequence resumes above the largest by_ref key
// of each type.
func (db *Database) load() error {
	// Entity types.
	type attrRow struct {
		name, typ, refType string
		pos                int64
	}
	attrs := map[string][]attrRow{} // "kind/owner" → rows
	err := db.store.Run(func(tx *storage.Tx) error {
		if err := tx.Scan(catAttribute, nil, func(_ storage.RowID, row value.Row) bool {
			t := row.Tuple()
			key := t[1].AsString() + "/" + t[0].AsString()
			attrs[key] = append(attrs[key], attrRow{t[2].AsString(), t[3].AsString(), t[4].AsString(), t[5].AsInt()})
			return true
		}); err != nil {
			return err
		}
		if err := tx.Scan(catEntity, nil, func(_ storage.RowID, row value.Row) bool {
			t := row.Tuple()
			name := t[0].AsString()
			rows := attrs["entity/"+name]
			sort.Slice(rows, func(i, j int) bool { return rows[i].pos < rows[j].pos })
			fields := make([]value.Field, len(rows))
			for i, r := range rows {
				k, _ := value.KindFromName(r.typ)
				fields[i] = value.Field{Name: r.name, Kind: k, RefType: r.refType}
			}
			db.addEntityType(&EntityType{Name: name, Attrs: fields})
			return true
		}); err != nil {
			return err
		}
		if err := tx.Scan(catRelationship, nil, func(_ storage.RowID, row value.Row) bool {
			t := row.Tuple()
			name := t[0].AsString()
			rows := attrs["relationship/"+name]
			sort.Slice(rows, func(i, j int) bool { return rows[i].pos < rows[j].pos })
			rt := &RelationshipType{Name: name, rel: relPrefix + name}
			for _, r := range rows {
				if r.typ == "role" {
					rt.Roles = append(rt.Roles, Role{Name: r.name, EntityType: r.refType})
				} else {
					k, _ := value.KindFromName(r.typ)
					rt.Attrs = append(rt.Attrs, value.Field{Name: r.name, Kind: k, RefType: r.refType})
				}
			}
			db.relationships[name] = rt
			return true
		}); err != nil {
			return err
		}
		children := map[string][]struct {
			child string
			pos   int64
		}{}
		if err := tx.Scan(catOrderChild, nil, func(_ storage.RowID, row value.Row) bool {
			t := row.Tuple()
			children[t[0].AsString()] = append(children[t[0].AsString()], struct {
				child string
				pos   int64
			}{t[1].AsString(), t[2].AsInt()})
			return true
		}); err != nil {
			return err
		}
		return tx.Scan(catOrdering, nil, func(_ storage.RowID, row value.Row) bool {
			t := row.Tuple()
			name := t[0].AsString()
			kids := children[name]
			sort.Slice(kids, func(i, j int) bool { return kids[i].pos < kids[j].pos })
			o := &Ordering{Name: name, Parent: t[1].AsString(), rel: ordPrefix + name}
			for _, k := range kids {
				o.Children = append(o.Children, k.child)
			}
			db.orderings[name] = o
			db.autoOrder++
			return true
		})
	})
	if err != nil {
		return err
	}

	var maxRef value.Ref
	for _, et := range db.typeList {
		if et.live == nil {
			return fmt.Errorf("model: entity type %s has no instance relation", et.Name)
		}
		if n, ok := et.live.IndexRangeCount("by_ref", nil, nil); ok && n > 0 {
			var kb [64]byte
			k, _ := et.live.IndexAt(kb[:0], "by_ref", n-1)
			if ref, ok := value.KeyRef(k); ok && ref > maxRef {
				maxRef = ref
			}
		}
	}
	db.store.BumpSeq("ref", uint64(maxRef))

	// Databases created before snapshot reads lack the by_parent_rank
	// index; add it (CreateIndex backfills) against old data directories.
	for _, o := range db.orderings {
		rel := db.store.Relation(o.rel)
		if rel == nil {
			continue
		}
		has := false
		for _, spec := range rel.Indexes() {
			if spec.Name == ixByParentRank {
				has = true
				break
			}
		}
		if !has {
			if err := db.store.CreateIndex(o.rel, storage.IndexSpec{
				Name: ixByParentRank, Columns: []string{"parent", "rank"},
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// addEntityType records et in the schema maps.  Caller holds db.mu (or
// owns db exclusively, as load does).
func (db *Database) addEntityType(et *EntityType) {
	et.rel = entPrefix + et.Name
	et.live = db.store.Relation(et.rel)
	db.entities[et.Name] = et
	db.typeList = append(db.typeList, et)
}

// DefineEntity declares a new entity type with the given attributes
// (define entity, §5.1).
func (db *Database) DefineEntity(name string, attrs ...value.Field) (*EntityType, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.entities[name]; exists {
		return nil, fmt.Errorf("model: entity type %q already defined", name)
	}
	fields := make([]value.Field, 0, len(attrs)+1)
	fields = append(fields, value.Field{Name: "_ref", Kind: value.KindRef})
	fields = append(fields, attrs...)
	if _, err := db.store.CreateRelation(entPrefix+name, value.NewSchema(fields...)); err != nil {
		return nil, err
	}
	if err := db.store.CreateIndex(entPrefix+name, storage.IndexSpec{
		Name: "by_ref", Columns: []string{"_ref"}, Unique: true,
	}); err != nil {
		return nil, err
	}
	err := db.store.Run(func(tx *storage.Tx) error {
		if _, err := tx.Insert(catEntity, value.Tuple{value.Str(name)}); err != nil {
			return err
		}
		for i, a := range attrs {
			if _, err := tx.Insert(catAttribute, value.Tuple{
				value.Str(name), value.Str("entity"), value.Str(a.Name),
				value.Str(a.Kind.String()), value.Str(a.RefType), value.Int(int64(i)),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	et := &EntityType{Name: name, Attrs: attrs}
	db.addEntityType(et)
	return et, nil
}

// DefineRelationship declares an m-to-n relationship type (define
// relationship, §5.1).
func (db *Database) DefineRelationship(name string, roles []Role, attrs ...value.Field) (*RelationshipType, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.relationships[name]; exists {
		return nil, fmt.Errorf("model: relationship %q already defined", name)
	}
	if len(roles) < 2 {
		return nil, fmt.Errorf("model: relationship %q needs at least two roles", name)
	}
	for _, r := range roles {
		if _, ok := db.entities[r.EntityType]; !ok {
			return nil, fmt.Errorf("model: relationship %q: %w: %s", name, ErrNoEntityType, r.EntityType)
		}
	}
	fields := make([]value.Field, 0, len(roles)+len(attrs))
	for _, r := range roles {
		fields = append(fields, value.Field{Name: r.Name, Kind: value.KindRef, RefType: r.EntityType})
	}
	fields = append(fields, attrs...)
	if _, err := db.store.CreateRelation(relPrefix+name, value.NewSchema(fields...)); err != nil {
		return nil, err
	}
	for _, r := range roles {
		if err := db.store.CreateIndex(relPrefix+name, storage.IndexSpec{
			Name: "by_" + r.Name, Columns: []string{r.Name},
		}); err != nil {
			return nil, err
		}
	}
	err := db.store.Run(func(tx *storage.Tx) error {
		if _, err := tx.Insert(catRelationship, value.Tuple{value.Str(name)}); err != nil {
			return err
		}
		pos := 0
		for _, r := range roles {
			if _, err := tx.Insert(catAttribute, value.Tuple{
				value.Str(name), value.Str("relationship"), value.Str(r.Name),
				value.Str("role"), value.Str(r.EntityType), value.Int(int64(pos)),
			}); err != nil {
				return err
			}
			pos++
		}
		for _, a := range attrs {
			if _, err := tx.Insert(catAttribute, value.Tuple{
				value.Str(name), value.Str("relationship"), value.Str(a.Name),
				value.Str(a.Kind.String()), value.Str(a.RefType), value.Int(int64(pos)),
			}); err != nil {
				return err
			}
			pos++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rt := &RelationshipType{Name: name, Roles: roles, Attrs: attrs, rel: relPrefix + name}
	db.relationships[name] = rt
	return rt, nil
}

// DefineOrdering declares a hierarchical ordering (define ordering,
// §5.4).  Name may be empty, in which case a name is synthesized from the
// first child and parent types (the paper leaves unnamed-ordering
// semantics to the dissertation; synthesizing keeps every ordering
// addressable by the query operators).
func (db *Database) DefineOrdering(name string, children []string, parent string) (*Ordering, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(children) == 0 {
		return nil, errors.New("model: ordering needs at least one child type")
	}
	if name == "" {
		db.autoOrder++
		name = fmt.Sprintf("%s_in_%s$%d", strings.ToLower(children[0]), strings.ToLower(parent), db.autoOrder)
	}
	if _, exists := db.orderings[name]; exists {
		return nil, fmt.Errorf("model: ordering %q already defined", name)
	}
	if _, ok := db.entities[parent]; !ok {
		return nil, fmt.Errorf("model: ordering %q: parent: %w: %s", name, ErrNoEntityType, parent)
	}
	seen := map[string]bool{}
	for _, c := range children {
		if _, ok := db.entities[c]; !ok {
			return nil, fmt.Errorf("model: ordering %q: child: %w: %s", name, ErrNoEntityType, c)
		}
		if seen[c] {
			return nil, fmt.Errorf("model: ordering %q: duplicate child type %s", name, c)
		}
		seen[c] = true
	}
	if _, err := db.store.CreateRelation(ordPrefix+name, value.NewSchema(
		value.Field{Name: "parent", Kind: value.KindRef, RefType: parent},
		value.Field{Name: "child", Kind: value.KindRef},
		value.Field{Name: "rank", Kind: value.KindInt},
	)); err != nil {
		return nil, err
	}
	if err := db.store.CreateIndex(ordPrefix+name, storage.IndexSpec{
		Name: "by_child", Columns: []string{"child"}, Unique: true,
	}); err != nil {
		return nil, err
	}
	if err := db.store.CreateIndex(ordPrefix+name, storage.IndexSpec{
		Name: ixByParentRank, Columns: []string{"parent", "rank"},
	}); err != nil {
		return nil, err
	}
	err := db.store.Run(func(tx *storage.Tx) error {
		if _, err := tx.Insert(catOrdering, value.Tuple{value.Str(name), value.Str(parent)}); err != nil {
			return err
		}
		for i, c := range children {
			if _, err := tx.Insert(catOrderChild, value.Tuple{
				value.Str(name), value.Str(c), value.Int(int64(i)),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o := &Ordering{Name: name, Parent: parent, Children: append([]string(nil), children...), rel: ordPrefix + name}
	db.orderings[name] = o
	return o, nil
}

// DefineIndex adds a secondary index over attributes of an entity type's
// instance relation.  DDL (define index on ...) routes through here; the
// next statement planned can range the new index.
func (db *Database) DefineIndex(typeName string, spec storage.IndexSpec) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.entities[typeName]; !ok {
		return fmt.Errorf("%w: %s", ErrNoEntityType, typeName)
	}
	if err := db.store.CreateIndex(entPrefix+typeName, spec); err != nil {
		return err
	}
	return nil
}

// DropIndex removes a secondary index from an entity type's instance
// relation; every statement plans afresh, so none planned after the drop
// can name the index.  The built-in by_ref surrogate index cannot be
// dropped.
func (db *Database) DropIndex(typeName, indexName string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.entities[typeName]; !ok {
		return fmt.Errorf("%w: %s", ErrNoEntityType, typeName)
	}
	if indexName == "by_ref" {
		return fmt.Errorf("model: index %q on %s is structural and cannot be dropped", indexName, typeName)
	}
	if err := db.store.DropIndex(entPrefix+typeName, indexName); err != nil {
		return err
	}
	return nil
}

// EntityType returns the named entity type.
func (db *Database) EntityType(name string) (*EntityType, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	et, ok := db.entities[name]
	return et, ok
}

// RelationshipType returns the named relationship type.
func (db *Database) RelationshipType(name string) (*RelationshipType, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rt, ok := db.relationships[name]
	return rt, ok
}

// OrderingByName returns the named ordering.
func (db *Database) OrderingByName(name string) (*Ordering, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	o, ok := db.orderings[name]
	return o, ok
}

// entityType, ordering and relationship resolve a schema object by name
// for a data operation.
func (db *Database) entityType(name string) (*EntityType, error) {
	if et, ok := db.EntityType(name); ok {
		return et, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoEntityType, name)
}

func (db *Database) ordering(name string) (*Ordering, error) {
	if o, ok := db.OrderingByName(name); ok {
		return o, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoOrdering, name)
}

func (db *Database) relationship(name string) (*RelationshipType, error) {
	if rt, ok := db.RelationshipType(name); ok {
		return rt, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoRelationship, name)
}

// entityTypes returns the entity types in definition order.
func (db *Database) entityTypes() []*EntityType {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.typeList[:len(db.typeList):len(db.typeList)]
}

// liveType returns the entity type whose live by_ref tree holds ref, or
// nil: a lock-free probe of each type's tree, so it may name the type of
// an uncommitted insert and miss a row under an uncommitted delete.
// Callers use it only as a hint and confirm through a reader.
func (db *Database) liveType(ref value.Ref) *EntityType {
	var kb [16]byte
	k := refKey(kb[:0], ref)
	for _, et := range db.entityTypes() {
		if et.live.IndexHas("by_ref", k) {
			return et
		}
	}
	return nil
}

// FindOrdering resolves an ordering by name, or — when name is empty — by
// the unique ordering whose child types include childType and whose
// parent is parentType (either may be empty to match any).  It returns an
// error when the reference is ambiguous.
func (db *Database) FindOrdering(name, childType, parentType string) (*Ordering, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if name != "" {
		o, ok := db.orderings[name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoOrdering, name)
		}
		return o, nil
	}
	var found *Ordering
	for _, o := range db.orderings {
		if childType != "" && !o.hasChild(childType) {
			continue
		}
		if parentType != "" && o.Parent != parentType {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("model: ordering reference ambiguous between %q and %q; specify `in <order_name>`", found.Name, o.Name)
		}
		found = o
	}
	if found == nil {
		return nil, fmt.Errorf("%w for child %q under parent %q", ErrNoOrdering, childType, parentType)
	}
	return found, nil
}

// EntityTypes returns all entity type names, sorted.
func (db *Database) EntityTypes() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.entities))
	for n := range db.entities {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RelationshipTypes returns all relationship type names, sorted.
func (db *Database) RelationshipTypes() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.relationships))
	for n := range db.relationships {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Orderings returns all ordering names, sorted.
func (db *Database) Orderings() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.orderings))
	for n := range db.orderings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
