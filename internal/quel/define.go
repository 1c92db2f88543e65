package quel

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/value"
)

// define executes a DDL statement against the model database and
// returns its confirmation.
func (s *Session) define(st Stmt) (string, error) {
	db := s.db
	switch q := st.(type) {
	case DefineEntity:
		fields, err := resolveFields(db, q.Attrs)
		if err != nil {
			return "", fmt.Errorf("quel: define entity %s: %w", q.Name, err)
		}
		if _, err := db.DefineEntity(q.Name, fields...); err != nil {
			return "", err
		}
		return fmt.Sprintf("defined entity %s with %d attributes", q.Name, len(fields)), nil

	case DefineRelationship:
		var roles []model.Role
		var attrs []value.Field
		for _, a := range q.Attrs {
			if _, ok := db.EntityType(a.TypeName); ok {
				roles = append(roles, model.Role{Name: a.Name, EntityType: a.TypeName})
				continue
			}
			k, ok := value.KindFromName(a.TypeName)
			if !ok {
				return "", fmt.Errorf("quel: define relationship %s: unknown type %q for attribute %q", q.Name, a.TypeName, a.Name)
			}
			attrs = append(attrs, value.Field{Name: a.Name, Kind: k})
		}
		if _, err := db.DefineRelationship(q.Name, roles, attrs...); err != nil {
			return "", err
		}
		return fmt.Sprintf("defined relationship %s with %d roles", q.Name, len(roles)), nil

	case DefineOrdering:
		if q.Parent == "" {
			return "", fmt.Errorf("quel: define ordering %s: an under clause is required (orderings without parents are not supported)", q.Name)
		}
		o, err := db.DefineOrdering(q.Name, q.Children, q.Parent)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("defined ordering %s (%s) under %s", o.Name, strings.Join(o.Children, ", "), o.Parent), nil

	case DefineIndex:
		spec := storage.IndexSpec{Name: indexName(q.Entity, q.Attrs), Columns: q.Attrs}
		if err := db.DefineIndex(q.Entity, spec); err != nil {
			return "", err
		}
		return fmt.Sprintf("defined index %s on %s", spec.Name, q.Entity), nil

	case DropIndex:
		name := indexName(q.Entity, q.Attrs)
		if err := db.DropIndex(q.Entity, name); err != nil {
			return "", err
		}
		return fmt.Sprintf("dropped index %s on %s", name, q.Entity), nil
	}
	return "", fmt.Errorf("quel: %s is not a definition", stmtKind(st))
}

// indexName synthesizes the index name both DefineIndex and DropIndex
// address, so a drop always finds what the matching define created.
func indexName(entity string, attrs []string) string {
	return "ix_" + strings.ToLower(entity) + "_" + strings.ToLower(strings.Join(attrs, "_"))
}

// resolveFields maps attribute definitions to schema fields, treating
// entity-type names as reference attributes.
func resolveFields(db *model.Database, attrs []AttrDef) ([]value.Field, error) {
	fields := make([]value.Field, 0, len(attrs))
	for _, a := range attrs {
		if _, ok := db.EntityType(a.TypeName); ok {
			fields = append(fields, value.Field{Name: a.Name, Kind: value.KindRef, RefType: a.TypeName})
			continue
		}
		k, ok := value.KindFromName(a.TypeName)
		if !ok {
			return nil, fmt.Errorf("unknown type %q for attribute %q", a.TypeName, a.Name)
		}
		fields = append(fields, value.Field{Name: a.Name, Kind: k})
	}
	return fields, nil
}
