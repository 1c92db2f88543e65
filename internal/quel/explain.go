package quel

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/value"
)

// planStats collects estimated and actual cardinalities plus timings
// while a retrieve executes.  The explain statement runs the query and
// renders this as a plan tree; normal execution gathers it too (the
// overhead is a handful of integer increments per row).
type planStats struct {
	Scans         []scanStats
	Steps         []joinStat // planned join order, one entry per variable
	Combos        int        // join combinations produced
	FilterIn      int        // bindings entering the qualification
	FilterOut     int        // bindings passing it
	OrderEvals    int        // before/after/under evaluations
	OrderDur      time.Duration
	IncipitEvals  int // incipit predicate evaluations
	IncipitDur    time.Duration
	UniqueDropped int
	SortElided    bool   // sort satisfied by index scan order
	SortIndex     string // index that satisfied it
	SortDur       time.Duration
	Emitted       int
	Total         time.Duration
}

// scanStats describes one range variable's scan.
type scanStats struct {
	Var      string
	Rel      string // entity or relationship type scanned
	Est      int    // estimated rows (range count for index scans)
	Scanned  int    // rows visited
	Kept     int    // rows surviving pushed-down sargs
	Index    string // secondary index used; empty = heap scan
	Range    string // key-range description for index scans
	Incipit  bool   // gram-probe scan driven by an incipit predicate
	Skipped  bool   // not scanned: another variable had no bindings
	Streamed bool   // iterated straight into the join, never collected
	Fetch    bool   // read by key per joined partner (OrderFetch, IndexFetch), not scanned
	Walked   int    // heap pages a full scan read
	Pages    int    // heap pages allocated; above Walked when sargs pruned
	Sargs    []string
	Dur      time.Duration
}

// joinStat describes how one variable entered the planned join.
type joinStat struct {
	Var     string
	Method  string // "scan", "hash", "fetch", "index", "loop"
	Cond    string // join conjunct(s) driving a hash join or a fetch
	Index   string // index a fetch reads partners through
	Est     int    // planner's combination estimate after this step
	Build   int    // bindings on the step's own side
	Probes  int
	Fetched int // rows read by key (fetch steps)
	Hits    int
}

// estCombos is the join-size estimate: the product of per-scan
// estimates, saturating instead of overflowing.
func (ps *planStats) estCombos() int {
	est := 1
	for _, sc := range ps.Scans {
		if sc.Est > 0 && est > int(^uint(0)>>1)/sc.Est {
			return int(^uint(0) >> 1)
		}
		est *= sc.Est
	}
	return est
}

// explain executes the wrapped statement and returns its plan tree as a
// one-column result instead of the query's own rows.
func (s *Session) explain(ctx context.Context, q Explain) (*Result, error) {
	ret, ok := q.Stmt.(Retrieve)
	if !ok {
		return nil, fmt.Errorf("quel: explain supports only retrieve statements, not %s", stmtKind(q.Stmt))
	}
	_, ps, err := s.retrieveStats(ctx, ret)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"QUERY PLAN"}}
	for _, line := range renderPlan(ret, ps) {
		res.Rows = append(res.Rows, value.Tuple{value.Str(line)})
	}
	return res, nil
}

// renderPlan formats the plan tree bottom-up: scans feed the join, the
// join feeds the filter, then unique/sort, then the retrieve root.
// Timings are wall-clock and therefore nondeterministic; tests redact
// the "time=..." fields.
func renderPlan(q Retrieve, ps *planStats) []string {
	var lines []string
	add := func(depth int, format string, args ...any) {
		lines = append(lines, strings.Repeat("  ", depth)+fmt.Sprintf(format, args...))
	}
	root := "Retrieve"
	if q.Unique {
		root = "Retrieve Unique"
	}
	add(0, "%s (rows=%d) (time=%s)", root, ps.Emitted, ps.Total)
	depth := 1
	if len(q.SortBy) > 0 {
		keys := make([]string, len(q.SortBy))
		for i, k := range q.SortBy {
			keys[i] = k.Label
			if k.Desc {
				keys[i] += " desc"
			}
		}
		if ps.SortElided {
			add(depth, "Sort: %s (satisfied by IndexScan %s)", strings.Join(keys, ", "), ps.SortIndex)
		} else {
			add(depth, "Sort: %s (time=%s)", strings.Join(keys, ", "), ps.SortDur)
		}
		depth++
	}
	if q.Unique {
		add(depth, "Unique (dropped=%d)", ps.UniqueDropped)
		depth++
	}
	if q.Where != nil {
		add(depth, "Filter: %s (in=%d, out=%d)", exprString(q.Where), ps.FilterIn, ps.FilterOut)
		depth++
		if ps.OrderEvals > 0 {
			add(depth, "OrderOps: %d evals (time=%s)", ps.OrderEvals, ps.OrderDur)
		}
		if ps.IncipitEvals > 0 {
			add(depth, "IncipitOps: %d evals (time=%s)", ps.IncipitEvals, ps.IncipitDur)
		}
	}
	if len(ps.Steps) > 1 {
		renderSteps(add, depth, ps, len(ps.Steps)-1)
		return lines
	}
	// Flat layout: single-variable plans, the naive executor, and
	// short-circuited statements (an empty scan skipped the join).
	if len(ps.Scans) > 1 {
		add(depth, "NestedLoopJoin (est=%d, actual=%d)", ps.estCombos(), ps.Combos)
		depth++
	}
	for _, sc := range ps.Scans {
		renderScan(add, depth, sc, false)
	}
	return lines
}

// renderSteps renders the planned left-deep join tree: step k joins the
// tree of steps [0, k) with step k's own scan.
func renderSteps(add func(int, string, ...any), depth int, ps *planStats, k int) {
	st := ps.Steps[k]
	if k == 0 {
		sc := scanFor(ps, st.Var)
		renderScan(add, depth, sc, sc.Streamed)
		return
	}
	switch st.Method {
	case "hash":
		add(depth, "HashJoin (%s) (est=%d, build=%d, probes=%d, hits=%d)", st.Cond, st.Est, st.Build, st.Probes, st.Hits)
	case "fetch":
		add(depth, "OrderFetch (%s) (est=%d, probes=%d, fetched=%d, kept=%d)", st.Cond, st.Est, st.Probes, st.Fetched, st.Hits)
	case "index":
		add(depth, "IndexFetch (%s) using %s (est=%d, probes=%d, fetched=%d, kept=%d)", st.Cond, st.Index, st.Est, st.Probes, st.Fetched, st.Hits)
	default:
		add(depth, "NestedLoopJoin (est=%d, probes=%d, hits=%d)", st.Est, st.Probes, st.Hits)
	}
	renderSteps(add, depth+1, ps, k-1)
	renderScan(add, depth+1, scanFor(ps, st.Var), false)
}

func scanFor(ps *planStats, v string) scanStats {
	for _, sc := range ps.Scans {
		if sc.Var == v {
			return sc
		}
	}
	return scanStats{Var: v}
}

// renderScan renders one access-path leaf, marking a join's streamed driver.
func renderScan(add func(int, string, ...any), depth int, sc scanStats, driver bool) {
	counts := fmt.Sprintf("est=%d, scanned=%d, kept=%d", sc.Est, sc.Scanned, sc.Kept)
	if sc.Walked < sc.Pages {
		counts += fmt.Sprintf(", pages=%d/%d", sc.Walked, sc.Pages)
	}
	if driver {
		counts += ", streamed"
	}
	switch {
	case sc.Skipped:
		add(depth, "Scan %s on %s (est=%d, skipped: earlier variable empty)", sc.Var, sc.Rel, sc.Est)
	case sc.Fetch:
		add(depth, "Fetch %s on %s using %s", sc.Var, sc.Rel, sc.Index)
	case sc.Incipit:
		add(depth, "IncipitScan %s on %s using %s [%s] (%s) (time=%s)",
			sc.Var, sc.Rel, sc.Index, sc.Range, counts, sc.Dur)
	case sc.Index != "" && sc.Range != "":
		add(depth, "IndexScan %s on %s using %s [%s] (%s) (time=%s)",
			sc.Var, sc.Rel, sc.Index, sc.Range, counts, sc.Dur)
	case sc.Index != "":
		add(depth, "IndexScan %s on %s using %s (%s) (time=%s)",
			sc.Var, sc.Rel, sc.Index, counts, sc.Dur)
	default:
		add(depth, "Scan %s on %s (%s) (time=%s)", sc.Var, sc.Rel, counts, sc.Dur)
	}
	if !sc.Skipped && len(sc.Sargs) > 0 {
		add(depth+1, "Sarg: %s", strings.Join(sc.Sargs, " and "))
	}
}

// exprString renders an expression roughly as it was written, for plan
// display.
func exprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return "true"
	case Lit:
		return x.V.String()
	case AttrRef:
		return x.Var + "." + x.Attr
	case VarRef:
		return x.Var
	case Binary:
		return fmt.Sprintf("(%s %s %s)", exprString(x.L), x.Op, exprString(x.R))
	case Unary:
		if x.Op == "not" {
			return "not " + exprString(x.X)
		}
		return x.Op + exprString(x.X)
	case IsOp:
		return fmt.Sprintf("(%s is %s)", exprString(x.L), exprString(x.R))
	case OrderOp:
		s := fmt.Sprintf("(%s %s %s", exprString(x.L), x.Op, exprString(x.R))
		if x.Order != "" {
			s += " in " + x.Order
		}
		return s + ")"
	case IncipitOp:
		return fmt.Sprintf("(%s incipit %s)", exprString(x.L), exprString(x.R))
	case Agg:
		arg := x.Var + ".all"
		if x.Attr != "" {
			arg = x.Var + "." + x.Attr
		}
		if x.Where != nil {
			return fmt.Sprintf("%s(%s where %s)", x.Fn, arg, exprString(x.Where))
		}
		return fmt.Sprintf("%s(%s)", x.Fn, arg)
	}
	return fmt.Sprintf("%T", e)
}
