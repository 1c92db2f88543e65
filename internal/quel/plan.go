package quel

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// This file is the cost-based planning layer over bindAll (§5.2: stored
// order and access paths are the relational performance lever).  Its
// optimizations, each visible in explain and in the quel.plan.* metrics:
//
//   - index range scans: a sarg on an indexed attribute becomes a
//     B-tree key range (model.InstancesRange) instead of a full scan;
//   - hash equi-joins: v1.a = v2.b (and `is`) conjuncts build a hash
//     table on the new variable's bindings and probe it, instead of
//     looping the cross product;
//   - ordering fetches: a heap-scanned variable tied to a joined partner
//     by before/after/under is read by key from the partner's range;
//   - index fetches: a variable tied to a joined partner by an
//     equi-conjunct on a key it can look up (a single-column index, its
//     identity, a relationship role) is read from that index per
//     partner row instead of being scanned and hashed;
//   - join ordering: smallest estimated fan-out first; the first
//     variable streams from its scan into the rest of the join.
//
// The qualification is still evaluated in full for every emitted
// combination, so the join conjuncts only prune; they never decide truth
// on their own.  The pre-planner executor is retained as bindAllNaive,
// the oracle the in-package differential tests compare against; no
// non-test code can select it.

// planMetrics are the planner's observability handles (all nil-safe).
type planMetrics struct {
	scanFull    *obs.Counter // quel.plan.scan.full
	scanIndex   *obs.Counter // quel.plan.scan.index
	scanIncipit *obs.Counter // quel.plan.scan.incipit
	joinHash    *obs.Counter // quel.plan.join.hash
	joinLoop    *obs.Counter // quel.plan.join.loop
	joinProbe   *obs.Counter // quel.plan.join.probe (ordering fetches)
	joinIndex   *obs.Counter // quel.plan.join.index
	hashProbes  *obs.Counter // quel.plan.hash.probes
	hashHits    *obs.Counter // quel.plan.hash.hits
	parQueries  *obs.Counter // quel.par.queries
	parMorsels  *obs.Counter // quel.par.morsels
}

// accessPath describes how one variable's bindings are produced: a heap
// scan, or a range of a secondary index.
type accessPath struct {
	index         string // secondary index name; empty = heap scan
	attr          string // attribute the index covers (plan-cache replay)
	lo, hi        []byte // encoded key bounds, nil = open
	rng           string // bound description for explain
	est           int    // row estimate (order-statistics count for ranges)
	reverse       bool   // descending index order (sort by ... desc)
	satisfiesSort bool   // index order doubles as the output sort order
	// incipit marks a gram-index candidate scan (IncipitScan): the
	// bounds range the companion gram type's index on `gram`, and the
	// bindings are the distinct entries posted there.  The incipit
	// predicate itself stays in the residual qualification.
	incipit bool
	gram    string // probe gram chosen from the pattern
}

// sortHint asks the planner to produce one variable's bindings in the
// order of an attribute, so a trailing sort can be skipped.
type sortHint struct {
	v    string
	attr string
	desc bool
}

// varPlan is one range variable's slice of the plan.
type varPlan struct {
	name   string
	info   varInfo
	sargs  []sarg
	access accessPath
	list   []binding // materialized bindings; never built for fetched or streamed variables
}

// estRows guesses how many of vp's rows survive its sargs: the access
// path's estimate, scaled for every sarg the path does not already bound
// by the classic selectivity guesses (1/10 for =, 1/3 for a range).
// Derived sargs are left out: the join they were derived across already
// divides by its own selectivity.
func estRows(vp *varPlan) float64 {
	n := float64(vp.access.est)
	for _, sg := range vp.sargs {
		switch {
		case sg.derived, strings.EqualFold(sg.attr, vp.access.attr), sg.op == "!=":
		case sg.op == "=":
			n /= 10
		default:
			n /= 3
		}
	}
	return n
}

// orderPartner finds an order conjunct tying vp to an already-joined
// variable, and which side of it vp is on.
func orderPartner(vp *varPlan, chosen map[string]bool, orders []orderCond) (_ orderCond, newIsLeft, ok bool) {
	for _, oc := range orders {
		if oc.l == vp.name && chosen[oc.r] {
			return oc, true, true
		}
		if oc.r == vp.name && chosen[oc.l] {
			return oc, false, true
		}
	}
	return orderCond{}, false, false
}

// joinKey selects the join-key value of one side of an equi-conjunct: an
// attribute of the variable or, with idx < 0, the entity itself.
type joinKey struct {
	v    string
	attr string
	idx  int
	kind value.Kind
}

func (k joinKey) value(b binding) value.Value {
	if k.idx < 0 {
		return value.RefVal(b.ref)
	}
	return b.attrs[k.idx]
}

func (k joinKey) String() string {
	if k.idx < 0 {
		return k.v
	}
	return k.v + "." + k.attr
}

// equiCond is a v1.a = v2.b (or `is`) conjunct usable as a hash-join key.
type equiCond struct {
	l, r joinKey
	desc string
}

// orderCond is a before/after/under conjunct between two distinct
// variables, with its ordering resolved at plan time.
type orderCond struct {
	op       string
	l, r     string
	ordering string
	desc     string
}

// extractJoinConds pulls hash-joinable and probe-able conjuncts out of
// the qualification.  Only top-level `and` arms qualify, mirroring
// extractSargs: anything under or/not must see the full evaluator.
func (s *Session) extractJoinConds(e Expr, infos map[string]varInfo, equis *[]equiCond, orders *[]orderCond) {
	switch x := e.(type) {
	case Binary:
		if x.Op == "and" {
			s.extractJoinConds(x.L, infos, equis, orders)
			s.extractJoinConds(x.R, infos, equis, orders)
			return
		}
		if x.Op != "=" {
			return
		}
		l, lok := joinKeyOf(x.L, infos)
		r, rok := joinKeyOf(x.R, infos)
		// Hashing requires the declared kinds to match exactly: the
		// order-preserving key encoding is bijective within one kind, so
		// key equality coincides with Compare == 0; across kinds (int
		// vs. float) it does not.
		if lok && rok && l.v != r.v && l.kind == r.kind {
			*equis = append(*equis, equiCond{l: l, r: r, desc: l.String() + " = " + r.String()})
		}
	case IsOp:
		l, lok := joinKeyOf(x.L, infos)
		r, rok := joinKeyOf(x.R, infos)
		if lok && rok && l.v != r.v && l.kind == value.KindRef && r.kind == value.KindRef {
			*equis = append(*equis, equiCond{l: l, r: r, desc: l.String() + " is " + r.String()})
		}
	case OrderOp:
		lv, lok := x.L.(VarRef)
		rv, rok := x.R.(VarRef)
		if !lok || !rok || lv.Var == rv.Var {
			return
		}
		li, lok := infos[lv.Var]
		ri, rok := infos[rv.Var]
		if !lok || !rok {
			return
		}
		var childType, parentType string
		switch x.Op {
		case "under":
			childType, parentType = li.typ, ri.typ
		default:
			childType = li.typ
		}
		o, err := s.db.FindOrdering(x.Order, childType, parentType)
		if err != nil {
			return // unresolvable here; full evaluation reports it
		}
		*orders = append(*orders, orderCond{op: x.Op, l: lv.Var, r: rv.Var, ordering: o.Name,
			desc: fmt.Sprintf("%s %s %s in %s", lv.Var, x.Op, rv.Var, o.Name)})
	}
}

// joinKeyOf resolves one side of an equi-conjunct to a key extractor.
func joinKeyOf(e Expr, infos map[string]varInfo) (joinKey, bool) {
	switch x := e.(type) {
	case AttrRef:
		info, ok := infos[x.Var]
		if !ok {
			return joinKey{}, false
		}
		i, ok := fieldIndex(info.fields, x.Attr)
		if !ok {
			return joinKey{}, false
		}
		f := info.fields[i]
		return joinKey{v: x.Var, attr: f.Name, idx: i, kind: f.Kind}, true
	case VarRef:
		info, ok := infos[x.Var]
		if !ok || info.isRel {
			return joinKey{}, false
		}
		return joinKey{v: x.Var, idx: -1, kind: value.KindRef}, true
	}
	return joinKey{}, false
}

// withMaxSuffix returns a copy of enc that bounds, from above, every
// index key whose value part is enc (storage.AppendKeyUpper).
func withMaxSuffix(enc []byte) []byte {
	return storage.AppendKeyUpper(enc[:len(enc):len(enc)])
}

// indexRange matches attr against a secondary index and converts the
// variable's own sargs on it into encoded key bounds.  Only literals
// whose kind equals the declared attribute kind contribute bounds
// (mixed-kind comparisons like int vs. float don't share key space);
// every sarg stays a residual filter regardless, so bounds only need to
// be sound supersets.  Derived sargs do not choose access paths.
func (s *Session) indexRange(rel *storage.Relation, info varInfo, attr string, sargs []sarg) (accessPath, bool) {
	i, ok := fieldIndex(info.fields, attr)
	if !ok {
		return accessPath{}, false
	}
	f := info.fields[i]
	spec, ok := rel.IndexByColumn(f.Name)
	if !ok {
		return accessPath{}, false
	}
	var lo, hi []byte
	var parts []string
	for _, sg := range sargs {
		if sg.derived || sg.col != i || sg.v.Kind() != f.Kind {
			continue
		}
		enc := value.AppendKey(nil, sg.v)
		var cl, ch []byte
		switch sg.op {
		case "=":
			cl, ch = enc, withMaxSuffix(enc)
		case ">=":
			cl = enc
		case ">":
			cl = withMaxSuffix(enc)
		case "<":
			ch = enc
		case "<=":
			ch = withMaxSuffix(enc)
		default:
			continue
		}
		if cl != nil && (lo == nil || bytes.Compare(cl, lo) > 0) {
			lo = cl
		}
		if ch != nil && (hi == nil || bytes.Compare(ch, hi) < 0) {
			hi = ch
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", f.Name, sg.op, sg.v))
	}
	est := s.db.InstancesRangeCount(info.typ, spec.Name, lo, hi)
	if est < 0 {
		return accessPath{}, false
	}
	return accessPath{index: spec.Name, attr: f.Name, lo: lo, hi: hi, rng: strings.Join(parts, " and "), est: est}, true
}

// incipitRange plans a gram-index candidate scan for an incipit
// conjunct on a variable: the registered index maps the pattern to its
// most selective gram, and order statistics on the gram index price the
// resulting posting range.  ok is false whenever the index cannot serve
// the pattern (none registered, pattern too short or malformed, gram
// index missing or deferred); the caller then falls back to other
// access paths and the residual predicate still decides truth.
func (s *Session) incipitRange(info varInfo, pattern string) (accessPath, bool) {
	spec, ok := s.db.IncipitIndexFor(info.typ)
	if !ok {
		return accessPath{}, false
	}
	gram, ok := spec.Gram(pattern)
	if !ok {
		return accessPath{}, false
	}
	ixName, ok := s.db.AttrIndexName(spec.GramType, spec.GramAttr)
	if !ok {
		return accessPath{}, false
	}
	lo := value.AppendKey(nil, value.Str(gram))
	hi := withMaxSuffix(lo)
	est := s.db.InstancesRangeCount(spec.GramType, ixName, lo, hi)
	if est < 0 {
		return accessPath{}, false
	}
	return accessPath{incipit: true, index: ixName, gram: gram, lo: lo, hi: hi,
		rng: fmt.Sprintf("gram = %q", gram), est: est}, true
}

// chooseAccess picks the access path for one variable: the most
// selective sarg-bounded index range (by order-statistics count), a
// gram-index incipit probe, the sort attribute's index when that lets
// the sort be skipped, or a heap scan.
func (s *Session) chooseAccess(varName string, info varInfo, sargs []sarg, incipits map[string]string) accessPath {
	full := accessPath{est: s.estimate(info)}
	if info.isRel {
		return full
	}
	rel := s.relationOf(info)
	if rel == nil {
		return full
	}
	if h := s.sortHint; h != nil && h.v == varName {
		if ap, ok := s.indexRange(rel, info, h.attr, sargs); ok {
			ap.satisfiesSort = true
			ap.reverse = h.desc
			return ap
		}
	}
	best, found := full, false
	if pat, ok := incipits[varName]; ok {
		if ap, ok := s.incipitRange(info, pat); ok {
			best, found = ap, true
		}
	}
	for _, f := range info.fields {
		ap, ok := s.indexRange(rel, info, f.Name, sargs)
		if !ok || (ap.lo == nil && ap.hi == nil) {
			continue // unbounded: no cheaper than the heap scan
		}
		if !found || ap.est < best.est {
			best, found = ap, true
		}
	}
	return best
}

// sargStrings renders vp's sargs for explain.
func sargStrings(vp *varPlan) []string {
	var out []string
	for _, sg := range vp.sargs {
		str := fmt.Sprintf("%s.%s %s %s", vp.name, sg.attr, sg.op, sg.v)
		if sg.derived {
			str += " (derived)"
		}
		out = append(out, str)
	}
	return out
}

// deriveSargs transfers constant sargs across the equi-joins
// (transitive predicate inference): with a.x = b.y a top-level conjunct,
// every sarg on a.x holds for b.y in each qualifying combination, so it
// can reject b's rows where they are read.  extractJoinConds only pairs
// attributes of one declared kind, within which Compare == 0 makes two
// values interchangeable in every comparison; across int and float
// above 2^53 it would not.  Chains (a = b = c) run to a fixpoint.  The
// derived sargs are appended to each variable's own in out.
func deriveSargs(equis []equiCond, out map[string][]sarg) {
	for changed := true; changed; {
		changed = false
		for _, ec := range equis {
			for _, d := range [2][2]joinKey{{ec.l, ec.r}, {ec.r, ec.l}} {
				from, to := d[0], d[1]
				if from.idx < 0 || to.idx < 0 {
					continue
				}
				for _, sg := range out[from.v] {
					if sg.col != from.idx || slices.ContainsFunc(out[to.v], func(t sarg) bool {
						return t.col == to.idx && t.accept == sg.accept && t.v.Kind() == sg.v.Kind() && value.Compare(t.v, sg.v) == 0
					}) {
						continue
					}
					out[to.v] = append(out[to.v], sarg{attr: to.attr, op: sg.op, v: sg.v, col: to.idx, accept: sg.accept, derived: true})
					changed = true
				}
			}
		}
	}
}

// scanPlan reads one variable's bindings through its chosen access path,
// applying the residual sargs, into keep (false stops the scan) or, with
// keep nil, into vp.list.  keep sees each binding decoded, valid until
// it returns; vp.list keeps the rows (binding.kept).
func (s *Session) scanPlan(ctx context.Context, vp *varPlan, keep func(binding) bool) error {
	st := scanStats{Var: vp.name, Rel: vp.info.typ, Est: vp.access.est,
		Index: vp.access.index, Range: vp.access.rng, Incipit: vp.access.incipit,
		Streamed: keep != nil, Sargs: sargStrings(vp)}
	if keep == nil {
		keep = func(b binding) bool {
			vp.list = append(vp.list, b.kept())
			return true
		}
	}
	start := time.Now()
	collect := func(b binding) bool {
		st.Scanned++
		if !sargsMatch(vp.sargs, b.attrs) {
			return true
		}
		st.Kept++
		return keep(b)
	}
	var err error
	if vp.access.incipit {
		s.pm.scanIncipit.Inc()
		err = s.incipitScan(ctx, vp, collect)
	} else if vp.access.index != "" {
		s.pm.scanIndex.Inc()
		buf := s.tuple()
		defer s.untuple(buf)
		emit := func(ref value.Ref, row value.Row) bool {
			b := binding{ref: ref, row: row, info: &vp.info}
			*buf = b.decode(*buf)
			return collect(b)
		}
		// Streamed scans run only on serial sessions, where the parallel
		// range split never engages.
		if did, perr := s.scanIndexParallel(ctx, vp, &st); did {
			err = perr
		} else {
			err = s.rd.InstancesRange(vp.info.typ, vp.access.index, vp.access.lo, vp.access.hi, vp.access.reverse, emit)
		}
	} else {
		s.pm.scanFull.Inc()
		pb := pruneBounds(vp.sargs)
		err = s.scanVar(&vp.info, pb, collect)
		st.Walked, st.Pages = pb.Walked, pb.Pages
	}
	st.Dur = time.Since(start)
	s.m.scanRows.Add(uint64(st.Scanned))
	if s.ps != nil {
		s.ps.Scans = append(s.ps.Scans, st)
	}
	return err
}

// incipitScan reads a variable's bindings from its gram-index access
// path: range the companion gram type's index for the probe gram, dedup
// the posted entry refs (an incipit can contain one gram several times),
// then fetch each candidate entity by key.  The emitted set is a
// superset of the true answer; the incipit predicate remains in the
// qualification and the Match callback rejects gram collisions per
// combination.
func (s *Session) incipitScan(ctx context.Context, vp *varPlan, collect func(binding) bool) error {
	spec, ok := s.db.IncipitIndexFor(vp.info.typ)
	if !ok {
		return fmt.Errorf("quel: no incipit index registered for %s", vp.info.typ)
	}
	gt, ok := s.db.EntityType(spec.GramType)
	if !ok {
		return fmt.Errorf("quel: incipit gram type %s not defined", spec.GramType)
	}
	ei, ok := gt.AttrIndex(spec.EntryAttr)
	if !ok {
		return fmt.Errorf("quel: incipit gram type %s has no attribute %q", spec.GramType, spec.EntryAttr)
	}
	seen := make(map[value.Ref]bool)
	var cands []value.Ref
	emitGram := func(_ value.Ref, row value.Row) bool {
		r := row.Col(ei + 1).AsRef() // past the gram's surrogate
		if !seen[r] {
			seen[r] = true
			cands = append(cands, r)
		}
		return true
	}
	if err := s.rd.InstancesRange(spec.GramType, vp.access.index, vp.access.lo, vp.access.hi, false, emitGram); err != nil {
		return err
	}
	buf := s.tuple()
	defer s.untuple(buf)
	for _, ref := range cands {
		b, ok, err := s.fetch(&vp.info, ref)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if *buf = b.decode(*buf); !collect(b) {
			return nil
		}
	}
	return nil
}

// fetch reads ref's instance of info's type by its unique by_ref key
// through the statement's reader, as a kept binding (its row, not yet
// decoded); ok is false when ref is of another type (an ordering may
// hold several child types).
func (s *Session) fetch(info *varInfo, ref value.Ref) (b binding, ok bool, err error) {
	b = binding{ref: ref, info: info}
	b.row, ok, err = s.rd.InstanceRow(info.typ, ref)
	return b, ok, err
}

type joinMethod uint8

const (
	joinScan joinMethod = iota // first variable: iterated from its scan
	joinLoop
	joinHash
	joinFetch // OrderFetch: partners by key from an ordering's range
	joinIndex // IndexFetch: partners from a lookup index's equality range
)

func (m joinMethod) String() string {
	switch m {
	case joinHash:
		return "hash"
	case joinFetch:
		return "fetch"
	case joinIndex:
		return "index"
	case joinScan:
		return "scan"
	}
	return "loop"
}

// joinStep adds one variable to the left-deep join.
type joinStep struct {
	vp     *varPlan
	method joinMethod
	cond   string
	// hash join and index fetch: the new variable's key columns and the
	// bound variables' values they must equal (one pair for a fetch)
	build []joinKey
	probe []joinKey
	table map[string][]int
	index string // fetch steps: the index partners are read through (by_ref for an order fetch)
	// order fetch
	oc        orderCond
	newIsLeft bool // the new variable is oc's left operand

	est int // estimated combinations after this step joins
}

// stepCount accumulates one driver's probe/fetch/hit counts for a step.
// The counts live outside joinStep so parallel workers driving disjoint
// morsels over the same (read-only) steps never write shared memory.
type stepCount struct{ probes, fetched, hits int }

// appendHashKey encodes v for hash-join key equality.  Within one
// declared kind the order-preserving encoding is bijective, except that
// -0.0 and +0.0 compare equal with distinct encodings; fold them.
func appendHashKey(dst []byte, v value.Value) []byte {
	if v.Kind() == value.KindFloat && v.AsFloat() == 0 {
		v = value.Float(0)
	}
	return value.AppendKey(dst, v)
}

func (s *Session) buildHashTable(vp *varPlan, build []joinKey) map[string][]int {
	h := make(map[string][]int, len(vp.list))
	var buf []byte
	t := s.tuple()
	defer s.untuple(t)
	for li := range vp.list {
		b := vp.list[li]
		*t = b.decode(*t)
		buf = buf[:0]
		for _, k := range build {
			buf = appendHashKey(buf, k.value(b))
		}
		h[string(buf)] = append(h[string(buf)], li)
	}
	return h
}

// distinctOf estimates how many distinct values of join key k there are
// among n of info's rows.  Entity refs are unique by construction;
// indexed attributes (relationship roles included) use the per-index
// distinct count maintained by the storage layer (rebuilt on checkpoint,
// refreshed lazily on churn); anything else falls back to a tenth of the
// rows — the classic guess for an unindexed equi-key.
func (s *Session) distinctOf(info varInfo, n int, k joinKey) int {
	if n == 0 {
		return 1
	}
	if k.idx < 0 {
		return n
	}
	if rel := s.relationOf(info); rel != nil {
		if spec, ok := rel.IndexByColumn(k.attr); ok {
			if st, ok := rel.Stats(spec.Name); ok && st.Distinct > 0 {
				return min(st.Distinct, n)
			}
		}
	}
	return max(n/10, 1)
}

// relationOf returns the storage relation a variable ranges over.
func (s *Session) relationOf(info varInfo) *storage.Relation {
	if info.isRel {
		return s.db.Store().Relation(s.db.RelationshipRelation(info.typ))
	}
	return s.db.Store().Relation(s.db.InstanceRelation(info.typ))
}

// lookupIndex names the index that reads info's rows by the value of
// key k: by_ref for an entity's identity, else a single-column index on
// the attribute (every relationship role has one, by_<role>).
func (s *Session) lookupIndex(info varInfo, k joinKey) (string, bool) {
	if k.idx < 0 {
		return "by_ref", true
	}
	rel := s.relationOf(info)
	if rel == nil {
		return "", false
	}
	spec, ok := rel.IndexByColumn(k.attr)
	if !ok || len(spec.Columns) != 1 {
		return "", false
	}
	return spec.Name, true
}

// equiSides orients an equi-conjunct around variable v: v's key, the
// other variable's, and whether v is one of its sides at all.
func equiSides(ec equiCond, v string) (mine, theirs joinKey, ok bool) {
	switch v {
	case ec.l.v:
		return ec.l, ec.r, true
	case ec.r.v:
		return ec.r, ec.l, true
	}
	return joinKey{}, joinKey{}, false
}

// keyFetch is an equi-conjunct through which a variable can be read by
// key: its lookup index, both keys, and the rows one probe returns (the
// relation's rows over the index's distinct keys).
type keyFetch struct {
	index        string
	mine, theirs joinKey
	desc         string
	fan          float64
}

// indexPartner finds the equi-conjunct tying vp to a bound variable
// through a key vp can look up, preferring the smallest fan-out.
func (s *Session) indexPartner(vp *varPlan, bound map[string]bool, equis []equiCond) (best keyFetch, ok bool) {
	for _, ec := range equis {
		mine, theirs, side := equiSides(ec, vp.name)
		if !side || !bound[theirs.v] {
			continue
		}
		ix, found := s.lookupIndex(vp.info, mine)
		if !found {
			continue
		}
		n := s.estimate(vp.info)
		fan := float64(n) / float64(s.distinctOf(vp.info, n, mine))
		if !ok || fan < best.fan {
			best, ok = keyFetch{index: ix, mine: mine, theirs: theirs, desc: ec.desc, fan: fan}, true
		}
	}
	return best, ok
}

// orderFanout estimates an ordering conjunct's partner count per bound
// row: one parent when the new variable is the parent side of `under`;
// the average family size (children over parents) when it is the child
// side; half the average sibling count for before/after.
func (s *Session) orderFanout(vp *varPlan, oc orderCond, newIsLeft bool) float64 {
	if oc.op == "under" && !newIsLeft {
		return 1
	}
	parents := 1
	if o, ok := s.db.OrderingByName(oc.ordering); ok {
		if n := s.db.Count(o.Parent); n > 0 {
			parents = n
		}
	}
	fan := float64(vp.access.est) / float64(parents)
	if oc.op != "under" {
		fan /= 2
	}
	if fan < 1 {
		fan = 1
	}
	return fan
}

// estFanout estimates how many combinations each already-joined row
// yields when vp joins next.  Equi-conjuncts into the joined set divide
// vp's estimated rows by the larger side's distinct count (containment
// assumption); failing those, a connecting ordering conjunct bounds the
// fan-out by its expected partner count; an unconnected variable
// contributes all its rows (cross product).
func (s *Session) estFanout(vp *varPlan, byName map[string]*varPlan, chosen map[string]bool, equis []equiCond, orders []orderCond) float64 {
	fan := estRows(vp)
	conn := false
	for _, ec := range equis {
		mine, theirs, ok := equiSides(ec, vp.name)
		if !ok || !chosen[theirs.v] {
			continue
		}
		conn = true
		d := s.distinctOf(vp.info, vp.access.est, mine)
		if op := byName[theirs.v]; op != nil {
			d = max(d, s.distinctOf(op.info, op.access.est, theirs))
		}
		if d > 1 {
			fan /= float64(d)
		}
	}
	if conn {
		return fan
	}
	if oc, newIsLeft, ok := orderPartner(vp, chosen, orders); ok {
		fan = min(fan, s.orderFanout(vp, oc, newIsLeft))
	}
	return fan
}

// orderJoins picks the join order from planner statistics: each round
// adds the unchosen variable with the smallest estimated fan-out
// (estFanout; for the first variable that is its estimated row count, so
// a small partner joins before the variable it can fetch), ties broken
// on estimated rows then name so plans stay deterministic for golden
// tests — except that bigDriver, when there is one, goes first.  A
// non-nil forced order (plan-cache replay) skips the ranking but still
// computes each step's estimate for explain.
func (s *Session) orderJoins(plans []*varPlan, equis []equiCond, orders []orderCond, forced []string) []*joinStep {
	byName := make(map[string]*varPlan, len(plans))
	for _, vp := range plans {
		byName[vp.name] = vp
	}
	if len(forced) == len(plans) {
		for _, name := range forced {
			if byName[name] == nil {
				forced = nil
				break
			}
		}
	} else {
		forced = nil
	}
	var driver *varPlan
	if forced == nil {
		driver = s.bigDriver(plans, equis, orders)
	}
	chosen := make(map[string]bool, len(plans))
	steps := make([]*joinStep, 0, len(plans))
	combos := 1.0
	for len(steps) < len(plans) {
		var best *varPlan
		var bestFan float64
		switch {
		case forced != nil:
			best = byName[forced[len(steps)]]
		case len(steps) == 0 && driver != nil:
			best = driver
		default:
			for _, vp := range plans { // plans arrive in sorted-name order
				if chosen[vp.name] {
					continue
				}
				fan := s.estFanout(vp, byName, chosen, equis, orders)
				if best == nil || fan < bestFan || (fan == bestFan && estRows(vp) < estRows(best)) {
					best, bestFan = vp, fan
				}
			}
		}
		fan := s.estFanout(best, byName, chosen, equis, orders)
		st := s.makeStep(best, chosen, equis, orders, len(steps) == 0, combos)
		if combos *= fan; combos > 1e15 {
			combos = 1e15 // saturate: float-to-int overflow is undefined
		}
		st.est = int(combos)
		steps = append(steps, st)
		chosen[best.name] = true
	}
	return steps
}

// bigDriver returns the largest input if it is a heap scan equi-joined to
// every other input: read in full wherever it joins, it streams best as
// the driver, through hash tables built on the smaller inputs.  It is
// none when some partner could fetch it by key — through an ordering or
// a lookup index — for fewer rows than the scan reads.
func (s *Session) bigDriver(plans []*varPlan, equis []equiCond, orders []orderCond) *varPlan {
	var big *varPlan
	for _, vp := range plans {
		if big == nil || estRows(vp) > estRows(big) {
			big = vp
		}
	}
	if len(plans) < 2 || big.access.index != "" {
		return nil
	}
	for _, oc := range orders { // big may be cheaper to fetch than to scan
		if oc.l == big.name || oc.r == big.name {
			return nil
		}
	}
	for _, vp := range plans {
		if vp == big {
			continue
		}
		joined := false
		for _, ec := range equis {
			_, theirs, ok := equiSides(ec, big.name)
			joined = joined || (ok && theirs.v == vp.name)
		}
		if !joined {
			return nil
		}
		if kf, ok := s.indexPartner(big, map[string]bool{vp.name: true}, equis); ok && estRows(vp)*kf.fan <= float64(big.access.est) {
			return nil
		}
	}
	return big
}

// makeStep decides how vp joins the chosen set (outer combinations).
// When vp's partners over all outer rows number no more than a read of
// vp's own access path, it is fetched by key: an ordering fetch for a
// heap-scanned entity tied by before/after/under, else an index fetch
// through an equi-conjunct on a key vp can look up.  Otherwise it is a
// hash join on every connecting equi-conjunct, or a nested loop
// (evalOrderOp's rank compare).
func (s *Session) makeStep(vp *varPlan, chosen map[string]bool, equis []equiCond, orders []orderCond, first bool, outer float64) *joinStep {
	st := &joinStep{vp: vp, method: joinScan}
	if first {
		return st
	}
	if oc, newIsLeft, ok := orderPartner(vp, chosen, orders); ok && !vp.info.isRel && vp.access.index == "" && outer*s.orderFanout(vp, oc, newIsLeft) <= float64(vp.access.est) {
		st.method, st.index, st.oc, st.newIsLeft, st.cond = joinFetch, "by_ref", oc, newIsLeft, oc.desc
		s.pm.joinProbe.Inc()
		return st
	}
	if kf, ok := s.indexPartner(vp, chosen, equis); ok && outer*kf.fan <= float64(vp.access.est) {
		st.method, st.index, st.cond = joinIndex, kf.index, kf.desc
		st.build, st.probe = []joinKey{kf.mine}, []joinKey{kf.theirs}
		s.pm.joinIndex.Inc()
		return st
	}
	var parts []string
	for _, ec := range equis {
		mine, theirs, ok := equiSides(ec, vp.name)
		if !ok || !chosen[theirs.v] {
			continue
		}
		st.build = append(st.build, mine)
		st.probe = append(st.probe, theirs)
		parts = append(parts, ec.desc)
	}
	if len(st.build) > 0 {
		st.method = joinHash
		st.cond = strings.Join(parts, " and ")
		s.pm.joinHash.Inc()
		return st
	}
	st.method = joinLoop
	s.pm.joinLoop.Inc()
	return st
}

// probeRefs returns the candidate refs for an ordering fetch, given the
// bound binding of the step's other variable.  The sets are exactly the
// conjunct's satisfying partners (rank-key ranges over the ordering's
// (parent, rank) index, or the P-edge for under), so the residual
// evaluation only re-confirms them.
func (s *Session) probeRefs(st *joinStep, other binding) ([]value.Ref, error) {
	o, name := s.rd, st.oc.ordering
	switch {
	case st.oc.op == "under" && st.newIsLeft: // new is the child: the other's children
		return o.Children(name, other.ref)
	case st.oc.op == "under":
		parent, _, ok, err := o.ChildPosition(name, other.ref)
		if err != nil || !ok {
			return nil, err
		}
		return []value.Ref{parent}, nil
	case (st.oc.op == "before") == st.newIsLeft:
		return o.SiblingsBefore(name, other.ref)
	}
	return o.SiblingsAfter(name, other.ref)
}

// stepRun drives the left-deep join: rec(k) binds steps[k] against the
// current environment and recurses.  All mutable state — environment,
// per-step counts, combination counter, probe key and fetch buffers — lives on
// the run, so parallel workers can drive disjoint driver morsels over the
// same (read-only after planning) steps with a stepRun each, race-free.
type stepRun struct {
	s      *Session
	ctx    context.Context
	steps  []*joinStep
	counts []stepCount
	e      env
	fn     func(env) error
	combos int
	work   int
	key    []byte
	bufs   [][]binding   // per fetch step: one probe's partners
	tups   []value.Tuple // per step: the bound row, decoded (Session.stepTuples)
}

// bind decodes b's row into step k's buffer, for as long as step k
// binds it.
func (r *stepRun) bind(k int, b binding) binding {
	r.tups[k] = b.decode(r.tups[k])
	return b
}

func (r *stepRun) rec(k int) error {
	if k == len(r.steps) {
		r.combos++
		return r.fn(r.e)
	}
	r.work++
	if r.work&1023 == 0 && r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", txn.ErrCanceled, err)
		}
	}
	s := r.s
	st := r.steps[k]
	vp := st.vp
	r.counts[k].probes++
	switch st.method {
	case joinHash:
		// The bucket is looked up before the deeper steps reuse r.key.
		r.key = r.key[:0]
		for _, p := range st.probe {
			r.key = appendHashKey(r.key, p.value(r.e[p.v]))
		}
		s.pm.hashProbes.Inc()
		for _, li := range st.table[string(r.key)] {
			r.counts[k].hits++
			s.pm.hashHits.Inc()
			r.e[vp.name] = r.bind(k, vp.list[li])
			if err := r.rec(k + 1); err != nil {
				return err
			}
		}
	case joinFetch, joinIndex:
		batch, err := r.partners(k)
		if err != nil {
			return err
		}
		for _, b := range batch {
			r.counts[k].fetched++
			if b = r.bind(k, b); !sargsMatch(vp.sargs, b.attrs) {
				continue
			}
			r.counts[k].hits++
			r.e[vp.name] = b
			if err := r.rec(k + 1); err != nil {
				return err
			}
		}
	default:
		for li := range vp.list {
			r.counts[k].hits++
			r.e[vp.name] = r.bind(k, vp.list[li])
			if err := r.rec(k + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// partners reads the rows of fetch step k's variable that its conjunct
// ties to the bound environment into the step's buffer: by key from the
// ordering's range (OrderFetch), or from the lookup index's equality
// range on the bound value (IndexFetch; a by_ref point read for
// identity).  A probe's rows are all collected before rec recurses: a
// locking index range calls back under the relation latch, which a
// deeper step's read of the same relation would re-enter.
func (r *stepRun) partners(k int) ([]binding, error) {
	if r.bufs == nil {
		r.bufs = make([][]binding, len(r.steps))
	}
	s, st := r.s, r.steps[k]
	info := &st.vp.info
	dst := r.bufs[k][:0]
	defer func() { r.bufs[k] = dst }()
	if st.method == joinFetch {
		other := r.e[st.oc.l]
		if st.newIsLeft {
			other = r.e[st.oc.r]
		}
		refs, err := s.probeRefs(st, other)
		if err != nil {
			return dst, err
		}
		for _, ref := range refs {
			b, ok, err := s.fetch(&st.vp.info, ref)
			if err != nil {
				return dst, err
			}
			if ok {
				dst = append(dst, b)
			}
		}
		return dst, nil
	}
	p := st.probe[0]
	v := p.value(r.e[p.v])
	if st.build[0].idx < 0 {
		b, ok, err := s.fetch(&st.vp.info, v.AsRef())
		if ok {
			dst = append(dst, b)
		}
		return dst, err
	}
	r.key = value.AppendKey(r.key[:0], v)
	n := len(r.key)
	r.key = storage.AppendKeyUpper(r.key)
	lo, hi := r.key[:n], r.key
	if info.isRel {
		err := s.rd.RelationshipRange(info.typ, st.index, lo, hi, func(row value.Row) bool {
			dst = append(dst, binding{row: row, info: info})
			return true
		})
		return dst, err
	}
	err := s.rd.InstancesRange(info.typ, st.index, lo, hi, false, func(ref value.Ref, row value.Row) bool {
		dst = append(dst, binding{ref: ref, row: row, info: info})
		return true
	})
	return dst, err
}

// bindAllPlanned is the cost-based executor behind bindAll.
func (s *Session) bindAllPlanned(ctx context.Context, vars []string, infos map[string]varInfo, sargs map[string][]sarg, where Expr, fn func(env) error) error {
	var equis []equiCond
	var orders []orderCond
	incipits := map[string]string{}
	if where != nil {
		s.extractJoinConds(where, infos, &equis, &orders)
		extractIncipits(where, incipits)
	}
	deriveSargs(equis, sargs)
	cached, key := s.lookupPlan(vars, infos, where)
	plans := make([]*varPlan, len(vars))
	for i, v := range vars {
		vp := &varPlan{name: v, info: infos[v], sargs: sargs[v]}
		if cached != nil {
			vp.access = s.cachedAccessPath(cached, vp, incipits)
		} else {
			vp.access = s.chooseAccess(v, vp.info, vp.sargs, incipits)
		}
		plans[i] = vp
	}
	if s.ps != nil && len(plans) == 1 && plans[0].access.satisfiesSort {
		s.ps.SortElided = true
		s.ps.SortIndex = plans[0].access.index
	}
	var forced []string
	if cached != nil {
		forced = cached.order
	}
	steps := s.orderJoins(plans, equis, orders, forced)
	if cached == nil && key != "" {
		s.storePlan(key, plans, steps)
	}
	for _, st := range steps {
		// An index fetch's key equals a value bound earlier, which has
		// passed the same sargs: a derived sarg on the key repeats them.
		if st.method == joinIndex && st.build[0].idx >= 0 {
			st.vp.sargs = slices.DeleteFunc(st.vp.sargs, func(sg sarg) bool {
				return sg.derived && sg.col == st.build[0].idx
			})
		}
	}
	if len(steps) == 0 {
		return fn(env{})
	}

	// Hash build sides and loop inners are materialized first: an empty
	// one skips every remaining scan.  The driver streams from its scan
	// under a snapshot.  A locking index scan calls back under the
	// relation latch, which a fetch from the callback would re-enter, so
	// the locking path materializes the driver, as does the parallel
	// executor, which splits it into morsels.
	stream := s.snap != nil && s.parWorkers <= 1
	scanned := make([]bool, len(steps))
	for k, st := range steps {
		if st.index != "" || (k == 0 && stream) {
			continue
		}
		scanned[k] = true
		if err := s.scanPlan(ctx, st.vp, nil); err != nil {
			return err
		}
		switch {
		case len(st.vp.list) == 0:
			for j, skip := range steps {
				if vp := skip.vp; !scanned[j] && s.ps != nil {
					s.ps.Scans = append(s.ps.Scans, scanStats{Var: vp.name, Rel: vp.info.typ, Est: vp.access.est,
						Index: vp.access.index, Range: vp.access.rng, Skipped: true, Sargs: sargStrings(vp)})
				}
			}
			return nil
		case st.method != joinHash:
		case s.parWorkers > 1 && len(st.vp.list) >= s.parMin:
			st.table = s.buildHashTableParallel(st.vp, st.build)
		default:
			st.table = s.buildHashTable(st.vp, st.build)
		}
	}
	if s.parallelOK(steps) {
		return s.runParallelJoin(ctx, steps)
	}
	run := &stepRun{s: s, ctx: ctx, steps: steps,
		counts: make([]stepCount, len(steps)), e: make(env, len(plans)), fn: fn, tups: s.stepTuples(len(steps))}
	run.counts[0].probes = 1
	bind := func(b binding) error { run.counts[0].hits++; run.e[steps[0].vp.name] = b; return run.rec(1) }
	var err error
	if stream {
		if serr := s.scanPlan(ctx, steps[0].vp, func(b binding) bool { err = bind(b); return err == nil }); err == nil {
			err = serr
		}
	} else {
		for _, b := range steps[0].vp.list {
			if err = bind(run.bind(0, b)); err != nil {
				break
			}
		}
	}
	s.finishJoin(steps, run.counts, run.combos)
	return err
}

// finishJoin publishes a finished join's counters — fetched rows count
// as scanned — and, when plan statistics are live, its steps for
// explain (with a leaf for each fetched variable, which has no scan).
func (s *Session) finishJoin(steps []*joinStep, counts []stepCount, combos int) {
	s.m.combos.Add(uint64(combos))
	if s.ps != nil {
		s.ps.Combos = combos
	}
	for k, st := range steps {
		s.m.scanRows.Add(uint64(counts[k].fetched))
		if s.ps == nil {
			continue
		}
		s.ps.Steps = append(s.ps.Steps, joinStat{Var: st.vp.name, Method: st.method.String(),
			Cond: st.cond, Index: st.index, Est: st.est, Build: len(st.vp.list),
			Probes: counts[k].probes, Fetched: counts[k].fetched, Hits: counts[k].hits})
		if st.index != "" {
			s.ps.Scans = append(s.ps.Scans, scanStats{Var: st.vp.name, Rel: st.vp.info.typ,
				Est: st.vp.access.est, Index: st.index, Fetch: true, Sargs: sargStrings(st.vp)})
		}
	}
}

// stmtCache memoizes ordering resolution and child positions for the
// duration of one statement, so before/after/under evaluations inside a
// join don't re-walk internal/model's structures per binding pair.
// Orderings are not mutated inside a QUEL statement, so the cache cannot
// go stale before execOne clears it.
type stmtCache struct {
	orderings map[string]*model.Ordering
	pos       map[string]map[value.Ref]posEntry
}

type posEntry struct {
	parent value.Ref
	rank   int64
	ok     bool
}

func newStmtCache() *stmtCache {
	return &stmtCache{
		orderings: make(map[string]*model.Ordering),
		pos:       make(map[string]map[value.Ref]posEntry),
	}
}

// resolveOrdering resolves the ordering an OrderOp refers to, cached per
// (name, operand types).
func (s *Session) resolveOrdering(x OrderOp, ltyp, rtyp string) (*model.Ordering, error) {
	var childType, parentType string
	switch x.Op {
	case "under":
		childType, parentType = ltyp, rtyp
	default:
		childType = ltyp
	}
	c := s.cache
	if c == nil {
		return s.db.FindOrdering(x.Order, childType, parentType)
	}
	key := x.Order + "|" + childType + "|" + parentType
	if o, ok := c.orderings[key]; ok {
		return o, nil
	}
	o, err := s.db.FindOrdering(x.Order, childType, parentType)
	if err != nil {
		return nil, err
	}
	c.orderings[key] = o
	return o, nil
}

// childPos returns ref's cached position (parent and rank) in ordering.
func (s *Session) childPos(ordering string, ref value.Ref) (posEntry, error) {
	c := s.cache
	if c == nil {
		parent, rank, ok, err := s.rd.ChildPosition(ordering, ref)
		return posEntry{parent: parent, rank: rank, ok: ok}, err
	}
	m := c.pos[ordering]
	if m == nil {
		m = make(map[value.Ref]posEntry)
		c.pos[ordering] = m
	}
	if pe, ok := m[ref]; ok {
		return pe, nil
	}
	parent, rank, ok, err := s.rd.ChildPosition(ordering, ref)
	if err != nil {
		return posEntry{}, err
	}
	pe := posEntry{parent: parent, rank: rank, ok: ok}
	m[ref] = pe
	return pe, nil
}
