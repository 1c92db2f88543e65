// Package ddl implements the data definition language of §5 of the
// paper:
//
//	define entity NAME ( attr = type {, attr = type} )
//	define relationship NAME ( attr = type {, attr = type} )
//	define ordering [ name ] ( child {, child} ) [ under parent ]
//
// following the BNF of §5.4.  An attribute whose type names an entity
// type is a reference attribute — the implicit representation of a
// "1 to n" relationship (§5.1, composition_date = DATE).  In a define
// relationship, reference attributes are the relationship's roles.
//
// As an implementation extension, `define index on ENTITY ( attr {, attr} )`
// creates a secondary index (the §5.2 relational ordering optimization),
// and `drop index on ENTITY ( attr {, attr} )` removes the index the
// matching define created.  Both route through the model layer; every
// statement is planned when it runs, so the next one sees the change.
package ddl

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/lex"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/value"
)

// ErrParse is the sentinel wrapped by every syntax error this parser
// reports, so clients can classify failures with errors.Is.
var ErrParse = errors.New("ddl: parse error")

// Statement is one parsed DDL statement.
type Statement interface{ ddlStmt() }

// AttrDef is one "name = type" attribute definition.
type AttrDef struct {
	Name     string
	TypeName string
}

// DefineEntity is a define entity statement.
type DefineEntity struct {
	Name  string
	Attrs []AttrDef
}

// DefineRelationship is a define relationship statement.
type DefineRelationship struct {
	Name  string
	Attrs []AttrDef
}

// DefineOrdering is a define ordering statement.
type DefineOrdering struct {
	Name     string // optional
	Children []string
	Parent   string // optional in the grammar; required for execution
}

// DefineIndex is the index-creation extension.
type DefineIndex struct {
	Entity string
	Attrs  []string
}

// DropIndex removes the index a matching DefineIndex created.
type DropIndex struct {
	Entity string
	Attrs  []string
}

func (DefineEntity) ddlStmt()       {}
func (DefineRelationship) ddlStmt() {}
func (DefineOrdering) ddlStmt()     {}
func (DefineIndex) ddlStmt()        {}
func (DropIndex) ddlStmt()          {}

// indexName synthesizes the index name both DefineIndex and DropIndex
// address, so a drop always finds what the matching define created.
func indexName(entity string, attrs []string) string {
	return "ix_" + strings.ToLower(entity) + "_" + strings.ToLower(strings.Join(attrs, "_"))
}

// parser carries the token stream.
type parser struct {
	lx  *lex.Lexer
	tok lex.Token
}

func (p *parser) next() {
	p.tok = p.lx.Next()
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrParse, p.tok.Line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(punct string) error {
	if !p.tok.Is(punct) {
		return p.errf("expected %q, found %s", punct, p.tok)
	}
	p.next()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.Kind != lex.Ident {
		return "", p.errf("expected identifier, found %s", p.tok)
	}
	s := p.tok.Text
	p.next()
	return s, nil
}

// Parse parses a sequence of DDL statements.
func Parse(src string) ([]Statement, error) {
	p := &parser{lx: lex.New(src)}
	p.next()
	var stmts []Statement
	for p.tok.Kind != lex.EOF {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if err := p.lx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrParse, err)
		}
	}
	if err := p.lx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
	}
	return stmts, nil
}

func (p *parser) statement() (Statement, error) {
	if p.tok.IsKeyword("drop") {
		p.next()
		if !p.tok.IsKeyword("index") {
			return nil, p.errf("expected 'index' after 'drop', found %s", p.tok)
		}
		p.next()
		return p.dropIndex()
	}
	if !p.tok.IsKeyword("define") {
		return nil, p.errf("expected 'define' or 'drop', found %s", p.tok)
	}
	p.next()
	switch {
	case p.tok.IsKeyword("entity"):
		p.next()
		return p.defineEntity()
	case p.tok.IsKeyword("relationship"):
		p.next()
		return p.defineRelationship()
	case p.tok.IsKeyword("ordering"):
		p.next()
		return p.defineOrdering()
	case p.tok.IsKeyword("index"):
		p.next()
		return p.defineIndex()
	default:
		return nil, p.errf("expected entity, relationship, ordering, or index after 'define', found %s", p.tok)
	}
}

func (p *parser) attrList() ([]AttrDef, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var attrs []AttrDef
	if p.tok.Is(")") {
		p.next()
		return attrs, nil
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		typ, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, AttrDef{Name: name, TypeName: typ})
		if p.tok.Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return attrs, nil
}

func (p *parser) defineEntity() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	attrs, err := p.attrList()
	if err != nil {
		return nil, err
	}
	return DefineEntity{Name: name, Attrs: attrs}, nil
}

func (p *parser) defineRelationship() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	attrs, err := p.attrList()
	if err != nil {
		return nil, err
	}
	return DefineRelationship{Name: name, Attrs: attrs}, nil
}

func (p *parser) defineOrdering() (Statement, error) {
	var name string
	if p.tok.Kind == lex.Ident && !p.tok.IsKeyword("under") {
		name = p.tok.Text
		p.next()
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var children []string
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		children = append(children, c)
		if p.tok.Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	var parent string
	if p.tok.IsKeyword("under") {
		p.next()
		var err error
		parent, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	}
	return DefineOrdering{Name: name, Children: children, Parent: parent}, nil
}

// indexTail parses the shared `on ENTITY ( attr {, attr} )` clause.
func (p *parser) indexTail() (string, []string, error) {
	if !p.tok.IsKeyword("on") {
		return "", nil, p.errf("expected 'on', found %s", p.tok)
	}
	p.next()
	entity, err := p.expectIdent()
	if err != nil {
		return "", nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return "", nil, err
	}
	var attrs []string
	for {
		a, err := p.expectIdent()
		if err != nil {
			return "", nil, err
		}
		attrs = append(attrs, a)
		if p.tok.Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return "", nil, err
	}
	return entity, attrs, nil
}

func (p *parser) defineIndex() (Statement, error) {
	entity, attrs, err := p.indexTail()
	if err != nil {
		return nil, err
	}
	return DefineIndex{Entity: entity, Attrs: attrs}, nil
}

func (p *parser) dropIndex() (Statement, error) {
	entity, attrs, err := p.indexTail()
	if err != nil {
		return nil, err
	}
	return DropIndex{Entity: entity, Attrs: attrs}, nil
}

// Exec parses and executes DDL statements against the model database,
// returning one human-readable confirmation per statement.
func Exec(db *model.Database, src string) ([]string, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	msgs := make([]string, 0, len(stmts))
	for _, s := range stmts {
		msg, err := execOne(db, s)
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, msg)
	}
	return msgs, nil
}

func execOne(db *model.Database, s Statement) (string, error) {
	switch st := s.(type) {
	case DefineEntity:
		fields, err := resolveFields(db, st.Attrs)
		if err != nil {
			return "", fmt.Errorf("ddl: define entity %s: %w", st.Name, err)
		}
		if _, err := db.DefineEntity(st.Name, fields...); err != nil {
			return "", err
		}
		return fmt.Sprintf("defined entity %s with %d attributes", st.Name, len(fields)), nil

	case DefineRelationship:
		var roles []model.Role
		var attrs []value.Field
		for _, a := range st.Attrs {
			if _, ok := db.EntityType(a.TypeName); ok {
				roles = append(roles, model.Role{Name: a.Name, EntityType: a.TypeName})
				continue
			}
			k, ok := value.KindFromName(a.TypeName)
			if !ok {
				return "", fmt.Errorf("ddl: define relationship %s: unknown type %q for attribute %q", st.Name, a.TypeName, a.Name)
			}
			attrs = append(attrs, value.Field{Name: a.Name, Kind: k})
		}
		if _, err := db.DefineRelationship(st.Name, roles, attrs...); err != nil {
			return "", err
		}
		return fmt.Sprintf("defined relationship %s with %d roles", st.Name, len(roles)), nil

	case DefineOrdering:
		if st.Parent == "" {
			return "", fmt.Errorf("ddl: define ordering %s: an under clause is required (orderings without parents are not supported)", st.Name)
		}
		o, err := db.DefineOrdering(st.Name, st.Children, st.Parent)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("defined ordering %s (%s) under %s", o.Name, strings.Join(o.Children, ", "), o.Parent), nil

	case DefineIndex:
		spec := storage.IndexSpec{
			Name:    indexName(st.Entity, st.Attrs),
			Columns: st.Attrs,
		}
		if err := db.DefineIndex(st.Entity, spec); err != nil {
			return "", err
		}
		return fmt.Sprintf("defined index %s on %s", spec.Name, st.Entity), nil

	case DropIndex:
		name := indexName(st.Entity, st.Attrs)
		if err := db.DropIndex(st.Entity, name); err != nil {
			return "", err
		}
		return fmt.Sprintf("dropped index %s on %s", name, st.Entity), nil
	}
	return "", fmt.Errorf("ddl: unknown statement %T", s)
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
