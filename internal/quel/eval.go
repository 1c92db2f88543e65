package quel

import (
	"fmt"
	"time"

	"repro/internal/value"
)

// eval evaluates an expression under a binding environment.
func (s *Session) eval(e Expr, en env) (value.Value, error) {
	switch x := e.(type) {
	case Lit:
		return x.V, nil

	case Param:
		return value.Null, fmt.Errorf("%w: unbound placeholder $%d (prepare the statement and bind arguments)", ErrParam, x.Idx)

	case AttrRef:
		b, ok := en[x.Var]
		if !ok {
			return value.Null, fmt.Errorf("quel: unbound variable %q", x.Var)
		}
		i, ok := fieldIndex(b.fields, x.Attr)
		if !ok {
			return value.Null, fmt.Errorf("quel: %s has no attribute %q", b.typ, x.Attr)
		}
		return b.attrs[i], nil

	case VarRef:
		b, ok := en[x.Var]
		if !ok {
			return value.Null, fmt.Errorf("quel: unbound variable %q", x.Var)
		}
		if b.ref == 0 {
			return value.Null, fmt.Errorf("quel: relationship variable %q has no entity identity", x.Var)
		}
		return value.RefVal(b.ref), nil

	case Unary:
		v, err := s.eval(x.X, en)
		if err != nil {
			return value.Null, err
		}
		switch x.Op {
		case "not":
			return value.Bool(!truthy(v)), nil
		case "-":
			switch v.Kind() {
			case value.KindInt:
				return value.Int(-v.AsInt()), nil
			case value.KindFloat:
				return value.Float(-v.AsFloat()), nil
			}
			return value.Null, fmt.Errorf("quel: cannot negate %s", v.Kind())
		}
		return value.Null, fmt.Errorf("quel: unknown unary %q", x.Op)

	case Binary:
		return s.evalBinary(x, en)

	case IsOp:
		l, err := s.eval(x.L, en)
		if err != nil {
			return value.Null, err
		}
		r, err := s.eval(x.R, en)
		if err != nil {
			return value.Null, err
		}
		if l.Kind() != value.KindRef || r.Kind() != value.KindRef {
			return value.Null, fmt.Errorf("quel: is requires entity operands (range variables or ref attributes)")
		}
		return value.Bool(l.AsRef() == r.AsRef()), nil

	case OrderOp:
		return s.evalOrderOp(x, en)

	case IncipitOp:
		return s.evalIncipitOp(x, en)

	case Agg:
		return s.evalAgg(x)
	}
	return value.Null, fmt.Errorf("quel: unknown expression %T", e)
}

func (s *Session) evalBool(e Expr, en env) (bool, error) {
	v, err := s.eval(e, en)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

func truthy(v value.Value) bool {
	switch v.Kind() {
	case value.KindBool:
		return v.AsBool()
	case value.KindNull:
		return false
	case value.KindInt:
		return v.AsInt() != 0
	default:
		return true
	}
}

func (s *Session) evalBinary(x Binary, en env) (value.Value, error) {
	// Short-circuit booleans.
	switch x.Op {
	case "and":
		l, err := s.evalBool(x.L, en)
		if err != nil {
			return value.Null, err
		}
		if !l {
			return value.Bool(false), nil
		}
		r, err := s.evalBool(x.R, en)
		if err != nil {
			return value.Null, err
		}
		return value.Bool(r), nil
	case "or":
		l, err := s.evalBool(x.L, en)
		if err != nil {
			return value.Null, err
		}
		if l {
			return value.Bool(true), nil
		}
		r, err := s.evalBool(x.R, en)
		if err != nil {
			return value.Null, err
		}
		return value.Bool(r), nil
	}
	l, err := s.eval(x.L, en)
	if err != nil {
		return value.Null, err
	}
	r, err := s.eval(x.R, en)
	if err != nil {
		return value.Null, err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		c := value.Compare(l, r)
		var out bool
		switch x.Op {
		case "=":
			out = c == 0
		case "!=":
			out = c != 0
		case "<":
			out = c < 0
		case "<=":
			out = c <= 0
		case ">":
			out = c > 0
		case ">=":
			out = c >= 0
		}
		return value.Bool(out), nil
	case "+", "-", "*", "/":
		return arith(x.Op, l, r)
	}
	return value.Null, fmt.Errorf("quel: unknown operator %q", x.Op)
}

func arith(op string, l, r value.Value) (value.Value, error) {
	// String concatenation with +.
	if op == "+" && l.Kind() == value.KindString && r.Kind() == value.KindString {
		return value.Str(l.AsString() + r.AsString()), nil
	}
	numeric := func(v value.Value) bool {
		return v.Kind() == value.KindInt || v.Kind() == value.KindFloat
	}
	if !numeric(l) || !numeric(r) {
		return value.Null, fmt.Errorf("quel: %q requires numeric operands, got %s and %s", op, l.Kind(), r.Kind())
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt {
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case "+":
			return value.Int(a + b), nil
		case "-":
			return value.Int(a - b), nil
		case "*":
			return value.Int(a * b), nil
		case "/":
			if b == 0 {
				return value.Null, fmt.Errorf("quel: division by zero")
			}
			return value.Int(a / b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return value.Float(a + b), nil
	case "-":
		return value.Float(a - b), nil
	case "*":
		return value.Float(a * b), nil
	case "/":
		if b == 0 {
			return value.Null, fmt.Errorf("quel: division by zero")
		}
		return value.Float(a / b), nil
	}
	return value.Null, fmt.Errorf("quel: unknown arithmetic %q", op)
}

// evalOrderOp evaluates before/after/under (§5.6).  Operands must be
// range variables; the ordering is resolved by the `in` clause or
// inferred from the operand types.
func (s *Session) evalOrderOp(x OrderOp, en env) (value.Value, error) {
	switch x.Op {
	case "before":
		s.m.opBefore.Inc()
	case "after":
		s.m.opAfter.Inc()
	case "under":
		s.m.opUnder.Inc()
	}
	if s.ps != nil {
		defer func(start time.Time) {
			s.ps.OrderEvals++
			s.ps.OrderDur += time.Since(start)
		}(time.Now())
	}
	lv, ok := x.L.(VarRef)
	if !ok {
		return value.Null, fmt.Errorf("quel: %s requires range variables as operands", x.Op)
	}
	rv, ok := x.R.(VarRef)
	if !ok {
		return value.Null, fmt.Errorf("quel: %s requires range variables as operands", x.Op)
	}
	lb, ok := en[lv.Var]
	if !ok {
		return value.Null, fmt.Errorf("quel: unbound variable %q", lv.Var)
	}
	rb, ok := en[rv.Var]
	if !ok {
		return value.Null, fmt.Errorf("quel: unbound variable %q", rv.Var)
	}
	o, err := s.resolveOrdering(x, lb.typ, rb.typ)
	if err != nil {
		return value.Null, fmt.Errorf("quel: %s: %w", x.Op, err)
	}
	// Compare cached child positions (parent, rank) instead of calling
	// BeforeIn/AfterIn/UnderIn per pair: inside a join the same refs
	// recur across combinations, and positions cannot change mid-statement.
	lp, err := s.childPos(o.Name, lb.ref)
	if err != nil {
		return value.Null, err
	}
	var res bool
	switch x.Op {
	case "before", "after":
		rp, err := s.childPos(o.Name, rb.ref)
		if err != nil {
			return value.Null, err
		}
		if lp.ok && rp.ok && lp.parent == rp.parent {
			if x.Op == "before" {
				res = lp.rank < rp.rank
			} else {
				res = lp.rank > rp.rank
			}
		}
	case "under":
		res = lp.ok && lp.parent == rb.ref
	}
	return value.Bool(res), nil
}

// evalIncipitOp evaluates the thematic-index predicate (`incipit`)
// through the index registered for the operand's entity type.  The
// registered Match callback is the authoritative check: even when the
// planner produced the bindings from a gram probe, every combination is
// re-verified here, so gram false positives never reach the result.
func (s *Session) evalIncipitOp(x IncipitOp, en env) (value.Value, error) {
	s.m.opIncipit.Inc()
	if s.ps != nil {
		defer func(start time.Time) {
			s.ps.IncipitEvals++
			s.ps.IncipitDur += time.Since(start)
		}(time.Now())
	}
	lv, ok := x.L.(VarRef)
	if !ok {
		return value.Null, fmt.Errorf("quel: incipit requires a range variable as its left operand")
	}
	lb, ok := en[lv.Var]
	if !ok {
		return value.Null, fmt.Errorf("quel: unbound variable %q", lv.Var)
	}
	if lb.ref == 0 {
		return value.Null, fmt.Errorf("quel: incipit requires an entity operand, not a relationship")
	}
	pv, err := s.eval(x.R, en)
	if err != nil {
		return value.Null, err
	}
	if pv.Kind() != value.KindString {
		return value.Null, fmt.Errorf("quel: incipit pattern must be a string, got %s", pv.Kind())
	}
	spec, ok := s.db.IncipitIndexFor(lb.typ)
	if !ok {
		return value.Null, fmt.Errorf("quel: no incipit index registered for %s", lb.typ)
	}
	m, err := spec.Match(s.rd, lb.ref, pv.AsString())
	if err != nil {
		return value.Null, err
	}
	return value.Bool(m), nil
}

// evalAgg evaluates an aggregate over its own independent range.
func (s *Session) evalAgg(x Agg) (value.Value, error) {
	info, err := s.varInfo(x.Var)
	if err != nil {
		return value.Null, err
	}
	attrIdx := -1
	if x.Attr != "" {
		i, ok := fieldIndex(info.fields, x.Attr)
		if !ok {
			return value.Null, fmt.Errorf("quel: %s has no attribute %q", info.typ, x.Attr)
		}
		attrIdx = i
	}
	count := 0
	sumI, isInt := int64(0), true
	sumF := 0.0
	var minV, maxV value.Value
	inner := make(env, 1)
	errOut := error(nil)
	err = s.scanVar(info, nil, func(b binding) bool {
		attrs := b.attrs
		if x.Where != nil {
			inner[x.Var] = b
			ok, err := s.evalBool(x.Where, inner)
			if err != nil {
				errOut = err
				return false
			}
			if !ok {
				return true
			}
		}
		count++
		if attrIdx >= 0 {
			v := attrs[attrIdx]
			switch v.Kind() {
			case value.KindInt:
				sumI += v.AsInt()
				sumF += v.AsFloat()
			case value.KindFloat:
				isInt = false
				sumF += v.AsFloat()
			}
			if minV.IsNull() || value.Compare(v, minV) < 0 {
				minV = v
			}
			if maxV.IsNull() || value.Compare(v, maxV) > 0 {
				maxV = v
			}
		}
		return true
	})
	if err != nil {
		return value.Null, err
	}
	if errOut != nil {
		return value.Null, errOut
	}
	switch x.Fn {
	case "count":
		return value.Int(int64(count)), nil
	case "any":
		return value.Bool(count > 0), nil
	case "sum":
		if isInt {
			return value.Int(sumI), nil
		}
		return value.Float(sumF), nil
	case "avg":
		if count == 0 {
			return value.Null, nil
		}
		return value.Float(sumF / float64(count)), nil
	case "min":
		return minV, nil
	case "max":
		return maxV, nil
	}
	return value.Null, fmt.Errorf("quel: unknown aggregate %q", x.Fn)
}
