package quel

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/value"
)

// Result is the output of a retrieve: labelled columns and result rows.
type Result struct {
	Columns []string
	Rows    []value.Tuple
	// Affected counts modified entities for append/replace/delete.
	Affected int
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("(%d affected)", r.Affected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		b.WriteByte('|')
		for i, s := range row {
			fmt.Fprintf(&b, " %-*s |", widths[i], s)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	b.WriteByte('|')
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteByte('|')
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// Session holds range-variable declarations across statements, mirroring
// the QUEL workspace model.
type Session struct {
	db     *model.Database
	ranges map[string]string // var → entity type
	m      sessMetrics
	pm     planMetrics
	ps     *planStats // live stats for the statement being executed
	naive  bool       // test oracle: run bindAllNaive instead of the planner; set only by in-package tests
	// sortHint, cache, snap, and emit live for one statement;
	// retrieveStats and execOne install and clear them.
	sortHint *sortHint
	cache    *stmtCache
	snap     *model.Snap // pinned read snapshot; nil = locking reads
	emit     *emitter    // live row collector; non-nil only inside a retrieve
	// Parallel execution (parallel.go) and the shared plan cache
	// (plancache.go) are opt-in per session.
	parWorkers int // worker pool size; <= 1 = serial
	parMin     int // minimum driver rows before the pool engages
	plans      *PlanCache
}

// SetParallel sets the worker-pool size for read statements.  With n > 1
// and a pinned snapshot, index-scan materialization, hash-table builds,
// and the join pipeline itself fan out across n workers (parallel.go);
// n <= 1 restores the serial executor.  Write statements never
// parallelize: they run under two-phase locking, not a snapshot.
func (s *Session) SetParallel(n int) { s.parWorkers = n }

// SetParallelMinRows overrides the driver-row threshold below which
// parallel execution is skipped (the fork/merge overhead would dominate).
// Tests use small values to force the parallel path on tiny fixtures.
func (s *Session) SetParallelMinRows(n int) {
	if n > 0 {
		s.parMin = n
	}
}

// SetPlanCache attaches a shared plan cache: join orders and access-path
// choices are reused across statements (and sessions) with the same
// normalized shape, until a schema change invalidates them.
func (s *Session) SetPlanCache(c *PlanCache) { s.plans = c }

// beginStmtSnap pins a read snapshot for one read-only statement and
// returns the function that releases it.  If the snapshot cannot be
// pinned (a canceled context) the session falls back to locking reads:
// s.snap stays nil and every scan takes its shared lock, as write
// statements do.
func (s *Session) beginStmtSnap(ctx context.Context) func() {
	snap, err := s.db.BeginSnapshot(ctx)
	if err != nil {
		return func() {}
	}
	s.snap = snap
	return func() {
		s.snap = nil
		snap.Close()
	}
}

// sessMetrics holds the query layer's observability handles, resolved
// once per session from the storage registry (all nil-safe).
type sessMetrics struct {
	stmt      *obs.Histogram // quel.stmt.ns
	scanRows  *obs.Counter   // quel.scan.rows
	combos    *obs.Counter   // quel.join.combos
	opBefore  *obs.Counter   // quel.op.before
	opAfter   *obs.Counter   // quel.op.after
	opUnder   *obs.Counter   // quel.op.under
	opIncipit *obs.Counter   // quel.op.incipit
	trace     *obs.Trace
}

// NewSession returns a session over the model database.
func NewSession(db *model.Database) *Session {
	s := &Session{db: db, ranges: make(map[string]string), parMin: defaultParMinRows}
	if reg := db.Store().Obs(); reg != nil {
		s.m = sessMetrics{
			stmt:      reg.Histogram("quel.stmt.ns"),
			scanRows:  reg.Counter("quel.scan.rows"),
			combos:    reg.Counter("quel.join.combos"),
			opBefore:  reg.Counter("quel.op.before"),
			opAfter:   reg.Counter("quel.op.after"),
			opUnder:   reg.Counter("quel.op.under"),
			opIncipit: reg.Counter("quel.op.incipit"),
			trace:     reg.Trace(),
		}
		s.pm = planMetrics{
			scanFull:    reg.Counter("quel.plan.scan.full"),
			scanIndex:   reg.Counter("quel.plan.scan.index"),
			scanIncipit: reg.Counter("quel.plan.scan.incipit"),
			joinHash:    reg.Counter("quel.plan.join.hash"),
			joinLoop:    reg.Counter("quel.plan.join.loop"),
			joinProbe:   reg.Counter("quel.plan.join.probe"),
			hashProbes:  reg.Counter("quel.plan.hash.probes"),
			hashHits:    reg.Counter("quel.plan.hash.hits"),
			parQueries:  reg.Counter("quel.par.queries"),
			parMorsels:  reg.Counter("quel.par.morsels"),
		}
	}
	return s
}

// Exec parses and executes QUEL statements.  It returns the result of the
// last retrieve (or a Result with Affected set for updates); range
// statements persist in the session.
func (s *Session) Exec(src string) (*Result, error) {
	return s.ExecCtx(context.Background(), src)
}

// ExecCtx is Exec under a context: cancellation aborts lock waits and
// long joins between statements with an error satisfying
// errors.Is(err, txn.ErrCanceled).
func (s *Session) ExecCtx(ctx context.Context, src string) (*Result, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		start := time.Now()
		r, err := s.execOne(ctx, st)
		s.m.stmt.ObserveSince(start)
		s.m.trace.Emit("quel.stmt", stmtKind(st), start, time.Since(start))
		if err != nil {
			return nil, err
		}
		if r != nil {
			last = r
		}
	}
	if last == nil {
		last = &Result{}
	}
	return last, nil
}

// stmtKind names a statement for trace events.
func stmtKind(st Stmt) string {
	switch st.(type) {
	case RangeStmt:
		return "range"
	case Retrieve:
		return "retrieve"
	case Append:
		return "append"
	case Replace:
		return "replace"
	case Delete:
		return "delete"
	case Explain:
		return "explain"
	}
	return "?"
}

func (s *Session) execOne(ctx context.Context, st Stmt) (*Result, error) {
	s.cache = newStmtCache()
	defer func() { s.cache = nil }()
	switch q := st.(type) {
	case RangeStmt:
		if _, ok := s.db.EntityType(q.EntityType); !ok {
			return nil, fmt.Errorf("quel: range: %w: %s", model.ErrNoEntityType, q.EntityType)
		}
		for _, v := range q.Vars {
			s.ranges[v] = q.EntityType
		}
		return nil, nil
	case Retrieve:
		// Read-only statements run against a pinned snapshot with zero
		// lock acquisition; writers keep the 2PL path below.
		defer s.beginStmtSnap(ctx)()
		return s.retrieve(ctx, q)
	case Append:
		return s.appendStmt(ctx, q)
	case Replace:
		return s.replace(ctx, q)
	case Delete:
		return s.delete(ctx, q)
	case Explain:
		defer s.beginStmtSnap(ctx)()
		return s.explain(ctx, q)
	}
	return nil, fmt.Errorf("quel: unknown statement %T", st)
}

// binding associates a range variable with a concrete instance: an
// entity (ref != 0) or a relationship tuple (ref == 0, no identity).
type binding struct {
	ref    value.Ref
	attrs  value.Tuple
	fields []value.Field
	typ    string
}

type env map[string]binding

// varInfo describes what a range variable ranges over.
type varInfo struct {
	typ    string
	isRel  bool // relationship rather than entity
	fields []value.Field
}

// varInfo resolves a range variable, applying the implicit-declaration
// rule (a variable named like an entity or relationship type ranges over
// that type, footnote 6 of the paper).
func (s *Session) varInfo(v string) (varInfo, error) {
	name := v
	if t, ok := s.ranges[v]; ok {
		name = t
	}
	if et, ok := s.db.EntityType(name); ok {
		return varInfo{typ: name, fields: et.Attrs}, nil
	}
	if rt, ok := s.db.RelationshipType(name); ok {
		return varInfo{typ: name, isRel: true, fields: rt.Fields()}, nil
	}
	return varInfo{}, fmt.Errorf("quel: undeclared range variable %q (and no entity or relationship type of that name)", v)
}

// scanVar iterates the instances the variable ranges over.
func (s *Session) scanVar(info varInfo, fn func(b binding) bool) error {
	return s.scanVarCtx(context.Background(), info, fn)
}

// scanVarCtx is scanVar under a context.  With a statement snapshot
// pinned it reads version chains lock-free; otherwise it takes shared
// locks through a storage transaction.
func (s *Session) scanVarCtx(ctx context.Context, info varInfo, fn func(b binding) bool) error {
	if snap := s.snap; snap != nil {
		if info.isRel {
			return snap.RelationshipTuples(info.typ, func(t value.Tuple) bool {
				return fn(binding{attrs: t, fields: info.fields, typ: info.typ})
			})
		}
		return snap.Instances(info.typ, func(ref value.Ref, attrs value.Tuple) bool {
			return fn(binding{ref: ref, attrs: attrs, fields: info.fields, typ: info.typ})
		})
	}
	if info.isRel {
		return s.db.RelationshipTuplesCtx(ctx, info.typ, func(t value.Tuple) bool {
			return fn(binding{attrs: t, fields: info.fields, typ: info.typ})
		})
	}
	return s.db.InstancesCtx(ctx, info.typ, func(ref value.Ref, attrs value.Tuple) bool {
		return fn(binding{ref: ref, attrs: attrs, fields: info.fields, typ: info.typ})
	})
}

// estimate returns the planner's cardinality estimate for a variable:
// the relation's current row count, read without scanning.
func (s *Session) estimate(info varInfo) int {
	if info.isRel {
		return s.db.RelationshipCount(info.typ)
	}
	return s.db.Count(info.typ)
}

// fieldIndex finds a field by name, case-insensitively.
func fieldIndex(fields []value.Field, name string) (int, bool) {
	for i, f := range fields {
		if strings.EqualFold(f.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// collectVars gathers the range variables mentioned by an expression.
func collectVars(e Expr, out map[string]bool) {
	switch x := e.(type) {
	case AttrRef:
		out[x.Var] = true
	case VarRef:
		out[x.Var] = true
	case Binary:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case Unary:
		collectVars(x.X, out)
	case IsOp:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case OrderOp:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case IncipitOp:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case Agg:
		// Aggregates range independently; their variable is not a join
		// variable of the outer query.
	}
	_ = e
}

// sarg is a pushed-down single-variable predicate used to filter a range
// variable's instances during the scan (a rudimentary optimizer: it keeps
// the nested-loop join from materializing obviously-excluded bindings).
type sarg struct {
	attr string
	op   string
	v    value.Value
}

// extractSargs pulls var.attr OP literal conjuncts out of the
// qualification, keyed by variable.
func extractSargs(e Expr, out map[string][]sarg) {
	switch x := e.(type) {
	case Binary:
		if x.Op == "and" {
			extractSargs(x.L, out)
			extractSargs(x.R, out)
			return
		}
		if relOps[x.Op] {
			if ar, ok := x.L.(AttrRef); ok {
				if lit, ok := x.R.(Lit); ok {
					out[ar.Var] = append(out[ar.Var], sarg{attr: ar.Attr, op: x.Op, v: lit.V})
				}
			}
			if ar, ok := x.R.(AttrRef); ok {
				if lit, ok := x.L.(Lit); ok {
					out[ar.Var] = append(out[ar.Var], sarg{attr: ar.Attr, op: flip(x.Op), v: lit.V})
				}
			}
		}
	}
}

// extractIncipits pulls `var incipit "pattern"` conjuncts out of the
// qualification, keyed by variable.  Like extractSargs, only top-level
// `and` arms qualify; prepared statements substitute $n placeholders
// with literals before planning, so bound patterns are covered too.
// The predicate always stays in the residual qualification — the gram
// probe yields a candidate superset that the Match callback re-checks.
func extractIncipits(e Expr, out map[string]string) {
	switch x := e.(type) {
	case Binary:
		if x.Op == "and" {
			extractIncipits(x.L, out)
			extractIncipits(x.R, out)
		}
	case IncipitOp:
		vr, ok := x.L.(VarRef)
		if !ok {
			return
		}
		lit, ok := x.R.(Lit)
		if !ok || lit.V.Kind() != value.KindString {
			return
		}
		if _, dup := out[vr.Var]; !dup {
			out[vr.Var] = lit.V.AsString()
		}
	}
}

func flip(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

func sargMatches(ss []sarg, fields []value.Field, attrs value.Tuple) bool {
	for _, sg := range ss {
		i, ok := fieldIndex(fields, sg.attr)
		if !ok {
			return true // let full evaluation report the error
		}
		c := value.Compare(attrs[i], sg.v)
		switch sg.op {
		case "=":
			if c != 0 {
				return false
			}
		case "!=":
			if c == 0 {
				return false
			}
		case "<":
			if c >= 0 {
				return false
			}
		case "<=":
			if c > 0 {
				return false
			}
		case ">":
			if c <= 0 {
				return false
			}
		case ">=":
			if c < 0 {
				return false
			}
		}
	}
	return true
}

// bindAll materializes the instances of each variable and invokes fn
// for every surviving combination.  It plans access and join order
// (plan.go); in-package tests flip s.naive to run the nested-loop
// oracle bindAllNaive instead.  Both record per-variable scan
// statistics and combination counts when the session's planStats is
// live, check the context periodically so a canceled statement stops
// promptly, and stop scanning as soon as any variable has no bindings
// (zero combinations regardless of the qualification's shape).
func (s *Session) bindAll(ctx context.Context, vars []string, where Expr, fn func(env) error) error {
	infos := make(map[string]varInfo, len(vars))
	for _, v := range vars {
		info, err := s.varInfo(v)
		if err != nil {
			return err
		}
		infos[v] = info
	}
	sargs := map[string][]sarg{}
	if where != nil {
		extractSargs(where, sargs)
	}
	if s.naive {
		return s.bindAllNaive(ctx, vars, infos, sargs, fn)
	}
	return s.bindAllPlanned(ctx, vars, infos, sargs, where, fn)
}

// bindAllNaive is the pre-planner executor: heap scans in alphabetical
// variable order, sarg filtering, nested-loop cross product.  Bindings
// alias the stored tuples; the storage layer never mutates tuples in
// place, so no copies are needed.
func (s *Session) bindAllNaive(ctx context.Context, vars []string, infos map[string]varInfo, sargs map[string][]sarg, fn func(env) error) error {
	lists := make([][]binding, len(vars))
	empty := false
	for i, v := range vars {
		info := infos[v]
		st := scanStats{Var: v, Rel: info.typ, Est: s.estimate(info)}
		for _, sg := range sargs[v] {
			st.Sargs = append(st.Sargs, fmt.Sprintf("%s.%s %s %s", v, sg.attr, sg.op, sg.v))
		}
		if empty {
			st.Skipped = true
			if s.ps != nil {
				s.ps.Scans = append(s.ps.Scans, st)
			}
			continue
		}
		start := time.Now()
		var list []binding
		err := s.scanVarCtx(ctx, info, func(b binding) bool {
			st.Scanned++
			if !sargMatches(sargs[v], b.fields, b.attrs) {
				return true
			}
			st.Kept++
			list = append(list, b)
			return true
		})
		st.Dur = time.Since(start)
		s.m.scanRows.Add(uint64(st.Scanned))
		if s.ps != nil {
			s.ps.Scans = append(s.ps.Scans, st)
		}
		if err != nil {
			return err
		}
		lists[i] = list
		if len(list) == 0 {
			empty = true
		}
	}
	if empty {
		if s.ps != nil {
			s.ps.Combos = 0
		}
		return nil
	}
	e := make(env, len(vars))
	combos := 0
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			combos++
			if combos&1023 == 0 && ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("%w: %w", txn.ErrCanceled, err)
				}
			}
			return fn(e)
		}
		for _, b := range lists[i] {
			e[vars[i]] = b
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(0)
	s.m.combos.Add(uint64(combos))
	if s.ps != nil {
		s.ps.Combos = combos
	}
	return err
}

// emitter evaluates the qualification and target list for one join
// combination and collects the resulting row.  It is the unit the
// parallel executor clones per worker: each worker gets its own emitter
// over its own session clone, so the only shared state on the emit path
// is the snapshot (safe for concurrent reads) and the atomic counters.
// Unique dedup deliberately does NOT happen here — retrieveStats applies
// it after the (merge-ordered) rows are assembled.
type emitter struct {
	s    *Session
	q    Retrieve
	ps   *planStats
	rows []value.Tuple
}

func (em *emitter) emit(e env) error {
	if em.q.Where != nil {
		em.ps.FilterIn++
		ok, err := em.s.evalBool(em.q.Where, e)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		em.ps.FilterOut++
	}
	var row value.Tuple
	for _, t := range em.q.Targets {
		if t.All {
			row = append(row, e[t.Var].attrs...)
			continue
		}
		v, err := em.s.eval(t.Expr, e)
		if err != nil {
			return err
		}
		row = append(row, v)
	}
	em.rows = append(em.rows, row)
	return nil
}

func (s *Session) retrieve(ctx context.Context, q Retrieve) (*Result, error) {
	res, _, err := s.retrieveStats(ctx, q)
	return res, err
}

// retrieveStats executes a retrieve and returns the plan statistics
// gathered along the way (used by explain).
func (s *Session) retrieveStats(ctx context.Context, q Retrieve) (*Result, *planStats, error) {
	ps := &planStats{}
	s.ps = ps
	defer func() { s.ps = nil }()
	start := time.Now()

	varSet := map[string]bool{}
	for _, t := range q.Targets {
		if t.All {
			varSet[t.Var] = true
		} else {
			collectVars(t.Expr, varSet)
		}
	}
	if q.Where != nil {
		collectVars(q.Where, varSet)
	}
	vars := sortedKeys(varSet)
	s.sortHint = sortHintFor(q, vars)
	defer func() { s.sortHint = nil }()

	// Resolve columns.
	res := &Result{}
	for _, t := range q.Targets {
		if t.All {
			info, err := s.varInfo(t.Var)
			if err != nil {
				return nil, nil, err
			}
			for _, a := range info.fields {
				label := a.Name
				if t.Label != "" {
					label = t.Label + "_" + a.Name
				}
				res.Columns = append(res.Columns, label)
			}
			continue
		}
		res.Columns = append(res.Columns, t.Label)
	}

	em := &emitter{s: s, q: q, ps: ps}
	s.emit = em
	err := s.bindAll(ctx, vars, q.Where, em.emit)
	s.emit = nil
	if err != nil {
		return nil, nil, err
	}
	rows := em.rows
	if q.Unique {
		// Dedup runs after the join (and after any parallel merge, which
		// reproduces the serial emit order), so first-occurrence-wins is
		// identical in every execution mode.
		seen := make(map[string]bool, len(rows))
		kept := rows[:0]
		for _, row := range rows {
			key := string(value.AppendKeyTuple(nil, row))
			if seen[key] {
				ps.UniqueDropped++
				continue
			}
			seen[key] = true
			kept = append(kept, row)
		}
		rows = kept
	}
	res.Rows = rows
	if len(q.SortBy) > 0 && !ps.SortElided {
		sortStart := time.Now()
		if err := sortRows(res, q.SortBy); err != nil {
			return nil, nil, err
		}
		ps.SortDur = time.Since(sortStart)
	}
	ps.Emitted = len(res.Rows)
	ps.Total = time.Since(start)
	return res, ps, nil
}

// sortHintFor detects a retrieve whose sort could be satisfied by index
// order: one range variable, one sort key, and the sorted column is a
// plain attribute of that variable.  Rows then leave the index already
// in output order (ties fall in row-id order, which the stable sort
// would preserve anyway), so sortRows can be skipped.  The first target
// matching the label decides, mirroring sortRows' column resolution.
func sortHintFor(q Retrieve, vars []string) *sortHint {
	if len(q.SortBy) != 1 || len(vars) != 1 {
		return nil
	}
	for _, t := range q.Targets {
		if t.All {
			return nil
		}
	}
	k := q.SortBy[0]
	for _, t := range q.Targets {
		if !strings.EqualFold(t.Label, k.Label) {
			continue
		}
		ar, ok := t.Expr.(AttrRef)
		if !ok || ar.Var != vars[0] {
			return nil
		}
		return &sortHint{v: ar.Var, attr: ar.Attr, desc: k.Desc}
	}
	return nil
}

// sortRows orders the result by the named columns (the sort by clause).
func sortRows(res *Result, keys []SortKey) error {
	idx := make([]int, len(keys))
	for i, k := range keys {
		found := -1
		for ci, col := range res.Columns {
			if strings.EqualFold(col, k.Label) {
				found = ci
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("quel: sort by: no result column %q", k.Label)
		}
		idx[i] = found
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, ci := range idx {
			c := value.Compare(res.Rows[a][ci], res.Rows[b][ci])
			if c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

func (s *Session) appendStmt(ctx context.Context, q Append) (*Result, error) {
	if _, ok := s.db.EntityType(q.EntityType); !ok {
		return nil, fmt.Errorf("quel: append: %w: %s", model.ErrNoEntityType, q.EntityType)
	}
	attrs := model.Attrs{}
	for _, a := range q.Assigns {
		v, err := s.eval(a.Expr, nil)
		if err != nil {
			return nil, err
		}
		attrs[a.Attr] = v
	}
	if _, err := s.db.NewEntityCtx(ctx, q.EntityType, attrs); err != nil {
		return nil, err
	}
	return &Result{Affected: 1}, nil
}

func (s *Session) replace(ctx context.Context, q Replace) (*Result, error) {
	varSet := map[string]bool{q.Var: true}
	if q.Where != nil {
		collectVars(q.Where, varSet)
	}
	for _, a := range q.Assigns {
		collectVars(a.Expr, varSet)
	}
	vars := sortedKeys(varSet)
	type update struct {
		ref   value.Ref
		attrs model.Attrs
	}
	var updates []update
	seen := map[value.Ref]bool{}
	err := s.bindAll(ctx, vars, q.Where, func(e env) error {
		if q.Where != nil {
			ok, err := s.evalBool(q.Where, e)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		ref := e[q.Var].ref
		if seen[ref] {
			return nil
		}
		seen[ref] = true
		attrs := model.Attrs{}
		for _, a := range q.Assigns {
			v, err := s.eval(a.Expr, e)
			if err != nil {
				return err
			}
			attrs[a.Attr] = v
		}
		updates = append(updates, update{ref: ref, attrs: attrs})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range updates {
		if err := s.db.SetAttrsCtx(ctx, u.ref, u.attrs); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(updates)}, nil
}

func (s *Session) delete(ctx context.Context, q Delete) (*Result, error) {
	varSet := map[string]bool{q.Var: true}
	if q.Where != nil {
		collectVars(q.Where, varSet)
	}
	vars := sortedKeys(varSet)
	var doomed []value.Ref
	seen := map[value.Ref]bool{}
	err := s.bindAll(ctx, vars, q.Where, func(e env) error {
		if q.Where != nil {
			ok, err := s.evalBool(q.Where, e)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		ref := e[q.Var].ref
		if !seen[ref] {
			seen[ref] = true
			doomed = append(doomed, ref)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, ref := range doomed {
		if err := s.db.DeleteEntityCtx(ctx, ref); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(doomed)}, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
