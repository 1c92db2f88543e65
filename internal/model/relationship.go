package model

import (
	"context"
	"fmt"

	"repro/internal/storage"
	"repro/internal/value"
)

// Relate creates an instance of the named m-to-n relationship.  roles
// maps role names to entity refs; attrs supplies values for the
// relationship's own attributes.  Every role must be filled with an
// entity of the declared type.
func (t Tx) Relate(relationship string, roles map[string]value.Ref, attrs Attrs) error {
	rt, err := t.db.relationship(relationship)
	if err != nil {
		return err
	}
	tup := make(value.Tuple, len(rt.Roles)+len(rt.Attrs))
	for i, role := range rt.Roles {
		ref, ok := roles[role.Name]
		if !ok {
			return fmt.Errorf("model: relate %s: missing role %q", relationship, role.Name)
		}
		if _, ok, err := t.InstanceRow(role.EntityType, ref); err != nil {
			return err
		} else if !ok {
			return t.mistyped(ref, func(typ string) error {
				return fmt.Errorf("model: relate %s: role %q needs %s, got %s", relationship, role.Name, role.EntityType, typ)
			})
		}
		tup[i] = value.RefVal(ref)
	}
	for i, a := range rt.Attrs {
		if v, ok := attrs[a.Name]; ok {
			tup[len(rt.Roles)+i] = v
		} else {
			tup[len(rt.Roles)+i] = value.Null
		}
	}
	if err := t.tx.LockExclusive(rt.rel); err != nil {
		return err
	}
	_, err = t.tx.Insert(rt.rel, tup)
	return err
}

// Unrelate removes all instances of the relationship in which every
// given role is bound to the given ref, and returns the number removed.
func (t Tx) Unrelate(relationship string, roles map[string]value.Ref) (int, error) {
	rt, err := t.db.relationship(relationship)
	if err != nil {
		return 0, err
	}
	if err := t.tx.LockExclusive(rt.rel); err != nil {
		return 0, err
	}
	var doomed []storage.RowID
	err = t.r.Scan(rt.rel, nil, func(id storage.RowID, row value.Row) bool {
		for name, ref := range roles {
			i, ok := rt.RoleIndex(name)
			if !ok || row.Col(i).AsRef() != ref {
				return true
			}
		}
		doomed = append(doomed, id)
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, id := range doomed {
		if err := t.tx.Delete(rt.rel, id); err != nil {
			return 0, err
		}
	}
	return len(doomed), nil
}

// Relate creates an instance of the named m-to-n relationship in one
// transaction (see Tx.Relate).
func (db *Database) Relate(relationship string, roles map[string]value.Ref, attrs Attrs) error {
	return db.write(context.Background(), func(t Tx) error { return t.Relate(relationship, roles, attrs) })
}

// Unrelate removes all instances of the relationship in which every
// given role is bound to the given ref.  It returns the number removed.
func (db *Database) Unrelate(relationship string, roles map[string]value.Ref) (int, error) {
	var n int
	err := db.write(context.Background(), func(t Tx) (err error) {
		n, err = t.Unrelate(relationship, roles)
		return err
	})
	return n, err
}

// RelInstance is one relationship instance: role bindings and attribute
// values.
type RelInstance struct {
	Roles map[string]value.Ref
	Attrs value.Tuple
}

// instance decodes a stored relationship tuple.
func (rt *RelationshipType) instance(t value.Tuple) RelInstance {
	inst := RelInstance{Roles: make(map[string]value.Ref, len(rt.Roles))}
	for i, r := range rt.Roles {
		inst.Roles[r.Name] = t[i].AsRef()
	}
	inst.Attrs = t[len(rt.Roles):].Clone()
	return inst
}

// Related returns the instances of the relationship in which role is
// bound to ref.  With role == "" it returns instances where any role is
// bound to ref.
func (db *Database) Related(relationship, role string, ref value.Ref) ([]RelInstance, error) {
	return read1(db, func(v View) ([]RelInstance, error) { return v.Related(relationship, role, ref) })
}

// RelatedRefs is a convenience over Related: the refs bound to wantRole
// in instances where haveRole is bound to ref.
func (db *Database) RelatedRefs(relationship, haveRole string, ref value.Ref, wantRole string) ([]value.Ref, error) {
	insts, err := db.Related(relationship, haveRole, ref)
	if err != nil {
		return nil, err
	}
	out := make([]value.Ref, 0, len(insts))
	for _, inst := range insts {
		if r, ok := inst.Roles[wantRole]; ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// Fields returns the relationship's tuple layout as schema fields: one
// reference field per role followed by the relationship's own attributes.
// This is the shape seen by query-language range variables bound to the
// relationship (QUEL ranges over any relation, including relationships).
func (rt *RelationshipType) Fields() []value.Field {
	fields := make([]value.Field, 0, len(rt.Roles)+len(rt.Attrs))
	for _, r := range rt.Roles {
		fields = append(fields, value.Field{Name: r.Name, Kind: value.KindRef, RefType: r.EntityType})
	}
	return append(fields, rt.Attrs...)
}

// RelationshipTuples calls fn with the raw tuple (role refs then
// attributes) of every instance of the relationship, decoded into one
// buffer the scan reuses: t is valid until fn returns.
func (db *Database) RelationshipTuples(name string, fn func(t value.Tuple) bool) error {
	var buf value.Tuple
	return db.read(context.Background(), func(v View) error {
		return v.RelationshipTuples(name, nil, func(row value.Row) bool {
			buf = row.Decode(buf)
			return fn(buf)
		})
	})
}

// RelationshipCount returns the number of instances of the named
// relationship (0 when undefined).  Used by the query layer for plan
// cardinality estimates.
func (db *Database) RelationshipCount(name string) int {
	rel := db.store.Relation(relPrefix + name)
	if rel == nil {
		return 0
	}
	return rel.Len()
}

// EachRelated calls fn for every instance of the relationship.
func (db *Database) EachRelated(relationship string, fn func(inst RelInstance) bool) error {
	rt, err := db.relationship(relationship)
	if err != nil {
		return err
	}
	return db.RelationshipTuples(relationship, func(t value.Tuple) bool { return fn(rt.instance(t)) })
}
