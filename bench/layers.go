package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/btree"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// layerInputs is everything a traced run measured, from which the
// per-layer metrics are derived.
type layerInputs struct {
	def      workloadDef
	im       image
	traced   pass     // the traced pass on the workload's own store
	delta    obsDelta // engine registry readings around the traced pass
	spans    []span
	overhead float64 // 1 - traced/untraced throughput

	// The replay of the same op stream with the outermost layer
	// removed: embedded instead of served, or in memory instead of
	// durable.  Nil when the workload has nothing to strip.
	replay      *pass
	replaySpans []span
	replayers   []worker
}

// meanOf is the mean of ascending (or any) values, 0 when empty.
func meanOf(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return ratio(s, float64(len(vals)))
}

func p50(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantile(sorted, 0.5)
}

// layerMetrics derives every per-layer metric of BENCHMARK.json.  A
// layer that does no work in a workload reports 0.
func layerMetrics(in layerInputs) (map[string]float64, error) {
	d, t := in.delta, in.traced
	ops := float64(t.ops)
	m := map[string]float64{}

	// client: the tail the end-to-end p95 leaves out, with its sample count.
	m["client.p99_ms"] = quantile(t.lat, 0.99) / 1e6
	m["client.p999_ms"] = quantile(t.lat, 0.999) / 1e6
	m["client.samples"] = ops

	// wire, server: only a served workload crosses them.
	spans := in.spans
	if in.def.served {
		spans = in.replaySpans
	}
	enc, dec := durations(spans, "wire.encode"), durations(spans, "wire.decode")
	m["wire.encode_ns_per_msg"] = meanOf(enc)
	m["wire.decode_ns_per_msg"] = meanOf(dec)
	var wireBytes float64
	for _, w := range in.replayers {
		if cw, ok := w.(*catWorker); ok {
			wireBytes += cw.wireBytes
		}
	}
	exec := durations(spans, "mdm.exec")
	if len(exec) == 0 { // the typed model API: the operation is the embedded call
		exec = t.lat
	}
	m["mdm.exec_us"] = p50(exec) / 1e3
	m["wire.bytes_per_op"], m["server.overhead_us"] = 0, 0
	if in.def.served {
		m["wire.bytes_per_op"] = ratio(wireBytes, float64(in.replay.ops))
		m["server.overhead_us"] = (p50(t.lat) - p50(exec)) / 1e3
	}
	m["server.frame_us"] = d.mean("server.frame.ns") / 1e3
	m["server.shed"] = d.count("server.admission.shed")
	m["server.queued_max"] = float64(t.queuedMax)

	// Statements are prepared once per connection, before the traced
	// pass: the ratio is over the store's lifetime.
	hits, misses := float64(d.to["mdm.stmt.cache.hits"].Value), float64(d.to["mdm.stmt.cache.misses"].Value)
	m["mdm.stmt_cache_hit_ratio"] = ratio(hits, hits+misses)

	// quel
	parse := durations(spans, "quel.parse")
	m["quel.parse_us"] = meanOf(parse) / 1e3
	m["quel.stmt_us"] = d.sum("quel.stmt.ns") / ops / 1e3
	m["quel.plan_cache_hit_ratio"] = ratio(d.count("quel.plan.cache.hits"), d.count("quel.plan.cache.hits")+d.count("quel.plan.cache.misses"))
	m["quel.rows_scanned_per_row_returned"] = ratio(d.count("quel.scan.rows"), float64(t.rows))
	m["quel.full_scans"] = d.count("quel.plan.scan.full")
	m["quel.index_scans"] = d.count("quel.plan.scan.index")
	m["quel.order_probes"] = d.count("quel.plan.join.probe")

	// storage
	m["storage.rows_read_per_op"] = d.count("storage.rows.read") / ops
	m["storage.rows_written_per_op"] = d.count("storage.rows.written") / ops
	ckpts := d.count("storage.ckpt.auto")
	m["storage.ckpt_count"] = ckpts
	m["storage.ckpt_stall_ms_max"] = float64(d.to["storage.ckpt.stall.ns"].Max) / 1e6
	m["storage.ckpt_fuzzy_ms"] = d.mean("storage.ckpt.fuzzy.ns") / 1e6
	m["storage.ckpt_bytes_per_ckpt"] = ratio(d.count("storage.ckpt.bytes"), d.count("storage.ckpt.fuzzy.ns"))
	store := in.im.mdm().Store
	var old float64
	for _, name := range store.Relations() {
		_, o, _ := store.Relation(name).VersionStats()
		old += float64(o)
	}
	m["storage.old_versions_end"] = old
	m["storage.reopen_s"] = in.im.reopenTime().Seconds()
	m["storage.snap_begin_ns"] = probeSnapBegin(store)

	// txn
	m["txn.lock_waits_per_op"] = d.count("txn.lock.wait.ns") / ops
	m["txn.lock_wait_us_per_op"] = d.sum("txn.lock.wait.ns") / ops / 1e3
	m["txn.deadlocks"] = d.count("txn.deadlock")

	// wal
	m["wal.bytes_per_op"] = d.count("wal.append.bytes") / ops
	m["wal.fsyncs_per_op"] = d.count("wal.fsync.ns") / ops
	m["wal.fsync_us"] = d.mean("wal.fsync.ns") / 1e3
	m["wal.group_size_mean"] = ratio(d.count("wal.group.txns"), d.count("wal.group.batches"))
	m["wal.group_wait_us"] = d.mean("wal.group.wait.ns") / 1e3
	recBytes := ratio(d.count("wal.append.bytes"), d.count("wal.append.records"))
	m["wal.bytes_per_record"] = recBytes
	appendNs, err := probeWALAppend(filepath.Dir(store.Dir()), int(recBytes))
	if err != nil {
		return nil, err
	}
	m["wal.append_ns_per_record"] = appendNs

	// model, btree, biblio, ingest, a bare round trip: probes on the
	// workload's own data and connections.
	if err := probeModelWrites(m); err != nil {
		return nil, fmt.Errorf("model write probe: %w", err)
	}
	if err := in.im.probe(m, d); err != nil {
		return nil, err
	}

	// budget: the share of the mean operation that no independently
	// measured layer accounts for.  Means, because they add.
	meanOp := ratio(float64(t.engine), ops)
	var explained float64
	switch {
	case in.def.served:
		// inside the server (admission, statement, reply write: its own
		// frame histogram) + the codec on the real payloads + a bare
		// round trip over the same loopback connection.
		explained = d.sum("server.frame.ns")/ops + (meanOf(enc)+meanOf(dec))*2 + m["server.ping_us"]*1e3
	case in.replay != nil:
		// the same edits on an in-memory store with no log (model,
		// storage and index work) + waits in the commit pipeline, on
		// locks and on checkpoints; the log's own CPU cost is what is
		// left.
		explained = ratio(float64(in.replay.engine), float64(in.replay.ops)) +
			(d.sum("wal.group.wait.ns")+d.sum("txn.lock.wait.ns")+d.sum("storage.ckpt.stall.ns"))/ops
	default:
		explained = meanOf(parse) + d.sum("quel.stmt.ns")/ops
	}
	m["budget.unexplained_ratio"] = 1 - ratio(explained, meanOp)
	m["trace.overhead_ratio"] = in.overhead
	m["harness.self_ratio"] = t.selfRatio()
	return m, nil
}

// probeSnapBegin times pinning and releasing an MVCC read snapshot.
func probeSnapBegin(store *storage.DB) float64 {
	const n = 2000
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < n; i++ {
		s, err := store.BeginSnapshot(ctx)
		if err != nil {
			return 0
		}
		s.Close()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// probeWALAppend times wal.Log.Append on a scratch log with records of
// the size the workload wrote (buffered appends, no fsync).
func probeWALAppend(dir string, recBytes int) (float64, error) {
	if recBytes <= 0 {
		return 0, nil
	}
	scratch, err := workDir(dir, "wal")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)
	log, err := wal.Open(filepath.Join(scratch, "scratch.wal"))
	if err != nil {
		return 0, err
	}
	defer log.Close()
	pad := recBytes - 32
	if pad < 8 {
		pad = 8
	}
	rec := &wal.Record{Type: wal.RecInsert, TxID: 1, Relation: "scratch", RowID: 1,
		New: value.Tuple{value.Int(1), value.Bytes(make([]byte, pad))}}
	const n = 20_000
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := log.Append(rec); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / n, nil
}

// probeBTree builds a tree from the workload's own keys in random
// order and times point inserts, point lookups and a full ascent.
func probeBTree(m map[string]float64, keys [][]byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	t := btree.New()
	start := time.Now()
	for i, k := range keys {
		t.Set(k, uint64(i))
	}
	m["btree.set_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(keys))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	start = time.Now()
	for _, k := range keys {
		t.Get(k)
	}
	m["btree.get_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(keys))
	start = time.Now()
	n := 0
	t.Ascend(nil, nil, func([]byte, uint64) bool { n++; return true })
	m["btree.ascend_ns_per_key"] = float64(time.Since(start).Nanoseconds()) / float64(n)
}

func intKeys(lo, hi int) [][]byte {
	keys := make([][]byte, 0, hi-lo)
	for n := lo; n < hi; n++ {
		keys = append(keys, value.AppendKey(nil, value.Int(int64(n))))
	}
	return keys
}

// probeModelReads times the ordering layer's read calls on children
// and parents of the workload's own store.
func probeModelReads(m map[string]float64, db *model.Database, ord string, children, parents []value.Ref) {
	var rank, before, kids time.Duration
	for _, c := range children {
		start := time.Now()
		_, _, _, _ = db.ChildPosition(ord, c)
		mid := time.Now()
		_, _ = db.SiblingsBefore(ord, c)
		rank += mid.Sub(start)
		before += time.Since(mid)
	}
	for _, p := range parents {
		start := time.Now()
		_, _ = db.Children(ord, p)
		kids += time.Since(start)
	}
	m["model.rank_lookup_ns"] = ratio(float64(rank.Nanoseconds()), float64(len(children)))
	m["model.siblings_before_us"] = ratio(float64(before.Nanoseconds()), float64(len(children))) / 1e3
	m["model.children_us"] = ratio(float64(kids.Nanoseconds()), float64(len(parents))) / 1e3
}

// probeModelWrites times middle inserts and moves on a scratch
// in-memory model: one parent the size of a measure, edited until its
// rank gaps exhaust, with no log and no fsync underneath — the
// ordering layer's own cost.
func probeModelWrites(m map[string]float64) error {
	store, err := storage.Open(storage.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	db, err := model.Open(store)
	if err != nil {
		return err
	}
	if _, err := db.DefineEntity("P"); err != nil {
		return err
	}
	if _, err := db.DefineEntity("C", value.Field{Name: "name", Kind: value.KindInt}); err != nil {
		return err
	}
	if _, err := db.DefineOrdering("c_in_p", []string{"C"}, "P"); err != nil {
		return err
	}
	parent, err := db.NewEntity("P", nil)
	if err != nil {
		return err
	}
	const n = 500
	kids, err := db.NewEntities("C", n+notesPerMeasure, func(i int) model.Attrs { return model.Attrs{"name": value.Int(int64(i))} })
	if err != nil {
		return err
	}
	for _, k := range kids[:notesPerMeasure] {
		if err := db.InsertChild("c_in_p", parent, k, model.Last()); err != nil {
			return err
		}
	}
	mid := kids[notesPerMeasure/2]
	start := time.Now()
	for _, k := range kids[notesPerMeasure:] {
		if err := db.InsertChild("c_in_p", parent, k, model.After(mid)); err != nil {
			return err
		}
	}
	m["model.insert_child_us"] = float64(time.Since(start).Nanoseconds()) / n / 1e3
	start = time.Now()
	for _, k := range kids[notesPerMeasure:] {
		if err := db.MoveChild("c_in_p", k, model.After(mid)); err != nil {
			return err
		}
	}
	m["model.move_child_us"] = float64(time.Since(start).Nanoseconds()) / n / 1e3
	return nil
}

// probe times a bare round trip on the workload's connections, the
// bibliographic layer's own calls, and the ordering and index layers
// on the catalogue's data; the ingest figures are the set-up load's,
// or the trickle's when the traced pass had one.
func (im *catImage) probe(m map[string]float64, d obsDelta) error {
	const pings = 2000
	start := time.Now()
	for i := 0; i < pings; i++ {
		if err := im.cl.Ping(context.Background()); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
	}
	m["server.ping_us"] = float64(time.Since(start).Nanoseconds()) / pings / 1e3

	load := im.ingest.Seconds()
	m["ingest.works_per_s"] = ratio(float64(im.works), load)
	m["ingest.batch_ms"] = load * 1e3 / math.Ceil(float64(im.works)/loadBatch)
	if d.count("ingest.batch.ns") > 0 {
		m["ingest.batch_ms"] = d.mean("ingest.batch.ns") / 1e6
	}

	ix := im.m.Biblio
	rng := rand.New(rand.NewSource(im.seed))
	const lookups = 20
	start = time.Now()
	for i := 0; i < lookups; i++ {
		_, _ = ix.Lookup("SWV", 1+rng.Intn(im.works))
	}
	m["biblio.lookup_us"] = float64(time.Since(start).Nanoseconds()) / lookups / 1e3
	const searches = 50
	start = time.Now()
	for i := 0; i < searches; i++ {
		iv, _ := im.incipitPattern(rng.Intn(im.works))
		_, _ = ix.SearchIncipit(iv)
	}
	m["biblio.search_incipit_ms"] = float64(time.Since(start).Nanoseconds()) / searches / 1e6

	// Rows the incipit statement examines per row it returns, on a
	// session of its own now that no other statement is running.
	sess, scanned := im.m.NewSession(), im.m.Obs().Counter("quel.scan.rows")
	before, hits := scanned.Value(), 0
	for i := 0; i < searches; i++ {
		_, pitches := im.incipitPattern(rng.Intn(im.works))
		op := catOp{class: cIncipit, args: []any{pitches}}
		if res, err := sess.QueryContext(context.Background(), adhoc(&op)); err == nil {
			hits += len(res.Rows)
		}
	}
	m["quel.incipit_candidates_per_hit"] = ratio(float64(scanned.Value()-before), float64(hits))
	m["biblio.add_entries_ms_per_batch"] = m["ingest.batch_ms"] // one AddEntries call per loader batch

	entries, _ := im.m.Model.Children("entry_in_catalog", im.cat)
	var sample, notes []value.Ref
	for i := 0; i < 200 && len(entries) > 0; i++ {
		e := entries[rng.Intn(len(entries))]
		sample = append(sample, e)
		if ks, _ := im.m.Model.Children("incipit_of_entry", e); len(ks) > 0 {
			notes = append(notes, ks[len(ks)-1])
		}
	}
	probeModelReads(m, im.m.Model, "incipit_of_entry", notes, sample)
	probeBTree(m, intKeys(1, im.works+1), im.seed)
	return nil
}

// probe times the ordering and index layers on the score corpus; the
// catalogue's layers do no work here.
func (im *scoreImage) probe(m map[string]float64, _ obsDelta) error {
	for _, name := range []string{"server.ping_us", "ingest.works_per_s", "ingest.batch_ms", "biblio.lookup_us",
		"biblio.search_incipit_ms", "biblio.add_entries_ms_per_batch", "quel.incipit_candidates_per_hit"} {
		m[name] = 0
	}
	rng := rand.New(rand.NewSource(im.seed))
	var notes, scores []value.Ref
	for len(notes) < 200 {
		if r := im.noteRef[rng.Intn(len(im.noteRef))]; im.m.Model.Exists(r) {
			notes = append(notes, r)
		}
	}
	for i := 0; i < 50; i++ {
		scores = append(scores, im.scoreRef[rng.Intn(len(im.scoreRef))])
	}
	probeModelReads(m, im.m.Model, "note_in_score", notes, scores)
	probeBTree(m, intKeys(0, im.notes), im.seed)
	return nil
}
