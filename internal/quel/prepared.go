package quel

import (
	"errors"
	"fmt"

	"repro/internal/value"
)

// ErrParam is the sentinel wrapped by every parameter-binding failure:
// wrong argument count, or an unbound placeholder reaching evaluation.
var ErrParam = errors.New("quel: parameter binding error")

// Prepared is a parsed, parameterized statement sequence.  It holds no
// session state, so one Prepared may be cached and executed by many
// sessions concurrently: binding substitutes the $n placeholders with
// argument literals into a fresh statement tree, leaving the parsed
// form untouched.  The substituted literals participate in sarg
// extraction and index selection exactly like inline literals, so a
// prepared statement plans as well as its spliced-text equivalent.
type Prepared struct {
	src     string
	stmts   []Stmt
	nParams int
}

// Prepare parses src into a reusable statement.  Placeholders are
// written $1, $2, ... and are 1-based.  A definition has no
// placeholders and cannot be prepared: it is refused as a parse error.
func Prepare(src string) (*Prepared, error) {
	stmts, n, err := ParseParams(src)
	if err != nil {
		return nil, err
	}
	for _, st := range stmts {
		if IsDDL(st) {
			return nil, fmt.Errorf("%w: cannot prepare %s; execute it directly", ErrParse, stmtKind(st))
		}
	}
	return &Prepared{src: src, stmts: stmts, nParams: n}, nil
}

// Src returns the source text the statement was prepared from.
func (p *Prepared) Src() string { return p.src }

// NumParams returns the number of arguments Exec requires (the highest
// placeholder index).
func (p *Prepared) NumParams() int { return p.nParams }

// Bind substitutes args into the prepared statements, returning a fresh
// statement list ready for execution.  The receiver is not modified.
func (p *Prepared) Bind(args ...value.Value) ([]Stmt, error) {
	if len(args) != p.nParams {
		return nil, fmt.Errorf("%w: statement takes %d argument(s), got %d", ErrParam, p.nParams, len(args))
	}
	if p.nParams == 0 {
		return p.stmts, nil
	}
	out := make([]Stmt, len(p.stmts))
	for i, st := range p.stmts {
		bound, err := bindStmt(st, args)
		if err != nil {
			return nil, err
		}
		out[i] = bound
	}
	return out, nil
}

// bindStmt returns st with every Param replaced by the matching
// argument literal.
func bindStmt(st Stmt, args []value.Value) (Stmt, error) {
	switch q := st.(type) {
	case RangeStmt:
		return q, nil
	case Retrieve:
		out := q
		out.Targets = make([]Target, len(q.Targets))
		for i, t := range q.Targets {
			bt := t
			if t.Expr != nil {
				e, err := bindExpr(t.Expr, args)
				if err != nil {
					return nil, err
				}
				bt.Expr = e
			}
			out.Targets[i] = bt
		}
		var err error
		if out.Where, err = bindOptExpr(q.Where, args); err != nil {
			return nil, err
		}
		return out, nil
	case Append:
		out := q
		assigns, err := bindAssigns(q.Assigns, args)
		if err != nil {
			return nil, err
		}
		out.Assigns = assigns
		return out, nil
	case Replace:
		out := q
		assigns, err := bindAssigns(q.Assigns, args)
		if err != nil {
			return nil, err
		}
		out.Assigns = assigns
		if out.Where, err = bindOptExpr(q.Where, args); err != nil {
			return nil, err
		}
		return out, nil
	case Delete:
		out := q
		var err error
		if out.Where, err = bindOptExpr(q.Where, args); err != nil {
			return nil, err
		}
		return out, nil
	case Explain:
		inner, err := bindStmt(q.Stmt, args)
		if err != nil {
			return nil, err
		}
		return Explain{Stmt: inner}, nil
	}
	return nil, fmt.Errorf("quel: cannot bind unknown statement %T", st)
}

func bindAssigns(assigns []Assign, args []value.Value) ([]Assign, error) {
	out := make([]Assign, len(assigns))
	for i, a := range assigns {
		e, err := bindExpr(a.Expr, args)
		if err != nil {
			return nil, err
		}
		out[i] = Assign{Attr: a.Attr, Expr: e}
	}
	return out, nil
}

func bindOptExpr(e Expr, args []value.Value) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	return bindExpr(e, args)
}

// bindExpr rewrites e with Params replaced by literals.  Subtrees
// without placeholders are shared, not copied.
func bindExpr(e Expr, args []value.Value) (Expr, error) {
	switch x := e.(type) {
	case Param:
		if x.Idx < 1 || x.Idx > len(args) {
			return nil, fmt.Errorf("%w: placeholder $%d out of range (have %d argument(s))", ErrParam, x.Idx, len(args))
		}
		return Lit{V: args[x.Idx-1]}, nil
	case Lit, AttrRef, VarRef:
		return e, nil
	case Binary:
		l, err := bindExpr(x.L, args)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(x.R, args)
		if err != nil {
			return nil, err
		}
		return Binary{Op: x.Op, L: l, R: r}, nil
	case Unary:
		inner, err := bindExpr(x.X, args)
		if err != nil {
			return nil, err
		}
		return Unary{Op: x.Op, X: inner}, nil
	case IsOp:
		l, err := bindExpr(x.L, args)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(x.R, args)
		if err != nil {
			return nil, err
		}
		return IsOp{L: l, R: r}, nil
	case OrderOp:
		l, err := bindExpr(x.L, args)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(x.R, args)
		if err != nil {
			return nil, err
		}
		return OrderOp{Op: x.Op, L: l, R: r, Order: x.Order}, nil
	case IncipitOp:
		l, err := bindExpr(x.L, args)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(x.R, args)
		if err != nil {
			return nil, err
		}
		return IncipitOp{L: l, R: r}, nil
	case Agg:
		w, err := bindOptExpr(x.Where, args)
		if err != nil {
			return nil, err
		}
		return Agg{Fn: x.Fn, Var: x.Var, Attr: x.Attr, Where: w}, nil
	}
	return nil, fmt.Errorf("quel: cannot bind unknown expression %T", e)
}
