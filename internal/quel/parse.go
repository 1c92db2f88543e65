package quel

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/lex"
	"repro/internal/value"
)

// ErrParse is the sentinel wrapped by every syntax error this parser
// reports, so clients can classify failures with errors.Is without
// string matching.
var ErrParse = errors.New("quel: parse error")

type parser struct {
	lx      *lex.Lexer
	tok     lex.Token
	nParams int // highest $n placeholder index seen
}

func (p *parser) next() { p.tok = p.lx.Next() }

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

func (p *parser) expectKeyword(kw string) error {
	if !p.tok.IsKeyword(kw) {
		return p.errf("expected %q, found %s", kw, p.tok)
	}
	p.next()
	return nil
}

// aggFns are the recognized aggregate function names.
var aggFns = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true, "any": true,
}

// Parse parses a sequence of statements.
func Parse(src string) ([]Stmt, error) {
	stmts, _, err := ParseParams(src)
	return stmts, err
}

// ParseParams parses a sequence of statements and additionally
// returns the number of $n placeholders the statements reference (the
// highest index; $2 without $1 still requires two arguments at bind
// time).
func ParseParams(src string) ([]Stmt, int, error) {
	p := &parser{lx: lex.New(src)}
	p.next()
	var stmts []Stmt
	for p.tok.Kind != lex.EOF {
		s, err := p.statement()
		if err != nil {
			return nil, 0, err
		}
		stmts = append(stmts, s)
		if err := p.lx.Err(); err != nil {
			return nil, 0, fmt.Errorf("%w: %w", ErrParse, err)
		}
	}
	if err := p.lx.Err(); err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrParse, err)
	}
	return stmts, p.nParams, nil
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.tok.IsKeyword("explain"):
		p.next()
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		if _, nested := inner.(Explain); nested {
			return nil, p.errf("explain cannot be nested")
		}
		return Explain{Stmt: inner}, nil
	case p.tok.IsKeyword("range"):
		p.next()
		return p.rangeStmt()
	case p.tok.IsKeyword("retrieve"):
		p.next()
		return p.retrieve()
	case p.tok.IsKeyword("append"):
		p.next()
		return p.appendStmt()
	case p.tok.IsKeyword("replace"):
		p.next()
		return p.replaceStmt()
	case p.tok.IsKeyword("delete"):
		p.next()
		return p.deleteStmt()
	case p.tok.IsKeyword("define"):
		p.next()
		return p.define()
	case p.tok.IsKeyword("drop"):
		p.next()
		if err := p.expectKeyword("index"); err != nil {
			return nil, err
		}
		entity, attrs, err := p.indexTail()
		if err != nil {
			return nil, err
		}
		return DropIndex{Entity: entity, Attrs: attrs}, nil
	default:
		return nil, p.errf("expected a statement (define, drop, range, retrieve, append, replace, delete, explain), found %s", p.tok)
	}
}

// define parses the rest of a define statement.
func (p *parser) define() (Stmt, error) {
	switch {
	case p.tok.IsKeyword("entity"):
		p.next()
		name, attrs, err := p.namedAttrs()
		return DefineEntity{Name: name, Attrs: attrs}, err
	case p.tok.IsKeyword("relationship"):
		p.next()
		name, attrs, err := p.namedAttrs()
		return DefineRelationship{Name: name, Attrs: attrs}, err
	case p.tok.IsKeyword("ordering"):
		p.next()
		return p.defineOrdering()
	case p.tok.IsKeyword("index"):
		p.next()
		entity, attrs, err := p.indexTail()
		return DefineIndex{Entity: entity, Attrs: attrs}, err
	default:
		return nil, p.errf("expected entity, relationship, ordering, or index after 'define', found %s", p.tok)
	}
}

// namedAttrs parses: NAME ( [ attr = type {, attr = type} ] )
func (p *parser) namedAttrs() (string, []AttrDef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return "", nil, err
	}
	var attrs []AttrDef
	for !p.tok.Is(")") {
		if len(attrs) > 0 {
			if err := p.expectPunct(","); err != nil {
				return "", nil, err
			}
		}
		attr, err := p.expectIdent()
		if err != nil {
			return "", nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return "", nil, err
		}
		typ, err := p.expectIdent()
		if err != nil {
			return "", nil, err
		}
		attrs = append(attrs, AttrDef{Name: attr, TypeName: typ})
	}
	p.next()
	return name, attrs, nil
}

// identList parses: ( ident {, ident} )
func (p *parser) identList() ([]string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var names []string
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		if !p.tok.Is(",") {
			break
		}
		p.next()
	}
	return names, p.expectPunct(")")
}

// defineOrdering parses: [ name ] ( child {, child} ) [ under parent ]
func (p *parser) defineOrdering() (Stmt, error) {
	var o DefineOrdering
	if p.tok.Kind == lex.Ident && !p.tok.IsKeyword("under") {
		o.Name = p.tok.Text
		p.next()
	}
	var err error
	if o.Children, err = p.identList(); err != nil {
		return nil, err
	}
	if p.tok.IsKeyword("under") {
		p.next()
		if o.Parent, err = p.expectIdent(); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// indexTail parses the `on ENTITY ( attr {, attr} )` clause define
// index and drop index share.
func (p *parser) indexTail() (string, []string, error) {
	if err := p.expectKeyword("on"); err != nil {
		return "", nil, err
	}
	entity, err := p.expectIdent()
	if err != nil {
		return "", nil, err
	}
	attrs, err := p.identList()
	return entity, attrs, err
}

// rangeStmt parses: range of v1 {, v2} is ENTITY
func (p *parser) rangeStmt() (Stmt, error) {
	if err := p.expectKeyword("of"); err != nil {
		return nil, err
	}
	var vars []string
	for {
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		vars = append(vars, v)
		if p.tok.Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKeyword("is"); err != nil {
		return nil, err
	}
	et, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return RangeStmt{Vars: vars, EntityType: et}, nil
}

func (p *parser) retrieve() (Stmt, error) {
	r := Retrieve{}
	if p.tok.IsKeyword("unique") {
		r.Unique = true
		p.next()
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		t, err := p.target()
		if err != nil {
			return nil, err
		}
		r.Targets = append(r.Targets, t)
		if p.tok.Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.tok.IsKeyword("where") {
		p.next()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		r.Where = w
	}
	if p.tok.IsKeyword("sort") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			label, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			key := SortKey{Label: label}
			if p.tok.IsKeyword("desc") {
				key.Desc = true
				p.next()
			} else if p.tok.IsKeyword("asc") {
				p.next()
			}
			r.SortBy = append(r.SortBy, key)
			if p.tok.Is(",") {
				p.next()
				continue
			}
			break
		}
	}
	return r, nil
}

// target parses one projection: [label =] expr, or var.all.
func (p *parser) target() (Target, error) {
	var label string
	// Lookahead for "label =" — an identifier followed by '=' that is
	// not itself followed by another '=' (to keep comparisons intact is
	// unnecessary here: '=' inside a target begins a labelled item, as
	// targets are projections, not qualifications).
	if p.tok.Kind == lex.Ident {
		save := *p.lx
		saveTok := p.tok
		name := p.tok.Text
		p.next()
		if p.tok.Is("=") {
			label = name
			p.next()
		} else {
			*p.lx = save
			p.tok = saveTok
		}
	}
	// var.all?
	if p.tok.Kind == lex.Ident {
		save := *p.lx
		saveTok := p.tok
		v := p.tok.Text
		p.next()
		if p.tok.Is(".") {
			p.next()
			if p.tok.IsKeyword("all") {
				p.next()
				return Target{Label: label, All: true, Var: v}, nil
			}
		}
		*p.lx = save
		p.tok = saveTok
	}
	e, err := p.expr()
	if err != nil {
		return Target{}, err
	}
	if label == "" {
		label = defaultLabel(e)
	}
	return Target{Label: label, Expr: e}, nil
}

func defaultLabel(e Expr) string {
	switch x := e.(type) {
	case AttrRef:
		return x.Attr
	case Agg:
		if x.Attr == "" {
			return x.Fn
		}
		return x.Fn + "_" + x.Attr
	default:
		return "expr"
	}
}

func (p *parser) appendStmt() (Stmt, error) {
	if err := p.expectKeyword("to"); err != nil {
		return nil, err
	}
	et, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	assigns, err := p.assignList()
	if err != nil {
		return nil, err
	}
	return Append{EntityType: et, Assigns: assigns}, nil
}

func (p *parser) replaceStmt() (Stmt, error) {
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	assigns, err := p.assignList()
	if err != nil {
		return nil, err
	}
	r := Replace{Var: v, Assigns: assigns}
	if p.tok.IsKeyword("where") {
		p.next()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		r.Where = w
	}
	return r, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := Delete{Var: v}
	if p.tok.IsKeyword("where") {
		p.next()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *parser) assignList() ([]Assign, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var assigns []Assign
	for {
		attr, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, Assign{Attr: attr, Expr: e})
		if p.tok.Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return assigns, nil
}

// Expression grammar, lowest to highest precedence:
//
//	expr     := orExpr
//	orExpr   := andExpr { "or" andExpr }
//	andExpr  := notExpr { "and" notExpr }
//	notExpr  := "not" notExpr | relExpr
//	relExpr  := addExpr [ relOp addExpr
//	          | "is" addExpr
//	          | "incipit" addExpr
//	          | ("before"|"after"|"under") addExpr [ "in" ident ] ]
//	addExpr  := mulExpr { ("+"|"-") mulExpr }
//	mulExpr  := unary { ("*"|"/") unary }
//	unary    := "-" unary | primary
//	primary  := literal | agg | var "." attr | var | "(" expr ")"
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.IsKeyword("or") {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.IsKeyword("and") {
		p.next()
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.tok.IsKeyword("not") {
		p.next()
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "not", X: x}, nil
	}
	return p.relExpr()
}

var relOps = map[string]bool{"=": true, "==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) relExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.tok.Kind == lex.Punct && relOps[p.tok.Text]:
		op := p.tok.Text
		if op == "==" {
			op = "="
		}
		p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return Binary{Op: op, L: l, R: r}, nil
	case p.tok.IsKeyword("is"):
		p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return IsOp{L: l, R: r}, nil
	case p.tok.IsKeyword("incipit"):
		p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return IncipitOp{L: l, R: r}, nil
	case p.tok.IsKeyword("before") || p.tok.IsKeyword("after") || p.tok.IsKeyword("under"):
		op := strings.ToLower(p.tok.Text)
		p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		oo := OrderOp{Op: op, L: l, R: r}
		if p.tok.IsKeyword("in") {
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			oo.Order = name
		}
		return oo, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.Is("+") || p.tok.Is("-") {
		op := p.tok.Text
		p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.tok.Is("*") || p.tok.Is("/") {
		op := p.tok.Text
		p.next()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (Expr, error) {
	if p.tok.Is("-") {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	switch {
	case p.tok.Kind == lex.Int:
		v := value.Int(p.tok.IntV)
		p.next()
		return Lit{V: v}, nil
	case p.tok.Kind == lex.Float:
		v := value.Float(p.tok.FltV)
		p.next()
		return Lit{V: v}, nil
	case p.tok.Kind == lex.String:
		v := value.Str(p.tok.Text)
		p.next()
		return Lit{V: v}, nil
	case p.tok.Is("$"):
		p.next()
		if p.tok.Kind != lex.Int {
			return nil, p.errf("expected a placeholder index after $, found %s", p.tok)
		}
		idx := int(p.tok.IntV)
		if idx < 1 {
			return nil, p.errf("placeholder indices are 1-based, got $%d", idx)
		}
		p.next()
		if idx > p.nParams {
			p.nParams = idx
		}
		return Param{Idx: idx}, nil
	case p.tok.Is("("):
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.Kind == lex.Ident:
		name := p.tok.Text
		lower := strings.ToLower(name)
		p.next()
		if aggFns[lower] && p.tok.Is("(") {
			return p.aggregate(lower)
		}
		switch lower {
		case "true":
			return Lit{V: value.Bool(true)}, nil
		case "false":
			return Lit{V: value.Bool(false)}, nil
		case "null":
			return Lit{V: value.Null}, nil
		}
		if p.tok.Is(".") {
			p.next()
			attr, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return AttrRef{Var: name, Attr: attr}, nil
		}
		return VarRef{Var: name}, nil
	default:
		return nil, p.errf("expected an expression, found %s", p.tok)
	}
}

// aggregate parses fn ( var.attr [where qual] ) or fn ( var.all [where qual] ).
func (p *parser) aggregate(fn string) (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("."); err != nil {
		return nil, err
	}
	var attr string
	if p.tok.IsKeyword("all") {
		p.next()
	} else {
		attr, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	}
	a := Agg{Fn: fn, Var: v, Attr: attr}
	if p.tok.IsKeyword("where") {
		p.next()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		a.Where = w
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if fn != "count" && fn != "any" && attr == "" {
		return nil, p.errf("%s requires an attribute, not .all", fn)
	}
	return a, nil
}
