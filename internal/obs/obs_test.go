package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if c2 := r.Counter("a.b"); c2 != c {
		t.Fatalf("Counter handle not stable")
	}
	// Nil registry and nil counter are no-ops.
	var nr *Registry
	nc := nr.Counter("x")
	nc.Inc()
	if nc.Value() != 0 {
		t.Fatalf("nil counter counted")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 2, 3, 4, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 1110 {
		t.Fatalf("Sum = %d, want 1110", h.Sum())
	}
	if h.min.Load() != 1 || h.max.Load() != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", h.min.Load(), h.max.Load())
	}
	// p50 upper bound must cover the 3rd smallest value (3 → bucket le 4).
	if q := h.Quantile(0.5); q < 3 || q > 4 {
		t.Fatalf("p50 = %d, want in [3,4]", q)
	}
	if q := h.Quantile(0.99); q < 1000 {
		t.Fatalf("p99 = %d, want ≥ 1000", q)
	}
	// Empty histogram quantile.
	if q := NewHistogram().Quantile(0.5); q != 0 {
		t.Fatalf("empty p50 = %d, want 0", q)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1 << 40: 40}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	if h.min.Load() != 0 || h.max.Load() != 7999 {
		t.Fatalf("min/max = %d/%d, want 0/7999", h.min.Load(), h.max.Load())
	}
}

func TestSnapshotAndValidate(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Histogram("a.lat.ns").Observe(500)
	r.Histogram("a.lat.ns").Observe(7)
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a.lat.ns" || snap[1].Name != "z.count" {
		t.Fatalf("snapshot order/content wrong: %+v", snap)
	}
	if snap[0].Kind != "histogram" || snap[0].Count != 2 || snap[0].Sum != 507 {
		t.Fatalf("histogram snapshot wrong: %+v", snap[0])
	}
	if snap[1].Kind != "counter" || snap[1].Value != 3 {
		t.Fatalf("counter snapshot wrong: %+v", snap[1])
	}
	if err := ValidateDoc(r.Doc()); err != nil {
		t.Fatalf("ValidateDoc: %v", err)
	}
	if m, ok := r.Get("z.count"); !ok || m.Value != 3 {
		t.Fatalf("Get(z.count) = %+v, %v", m, ok)
	}

	bad := r.Doc()
	bad.SchemaVersion = 99
	if err := ValidateDoc(bad); err == nil {
		t.Fatalf("ValidateDoc accepted wrong schema version")
	}
	bad2 := r.Doc()
	bad2.Metrics[0].Buckets = nil
	if err := ValidateDoc(bad2); err == nil {
		t.Fatalf("ValidateDoc accepted inconsistent histogram buckets")
	}
}

func TestValidatePlannerCounters(t *testing.T) {
	planSet := []string{
		"quel.plan.scan.full", "quel.plan.scan.index",
		"quel.plan.join.hash", "quel.plan.join.loop", "quel.plan.join.probe",
		"quel.plan.join.index", "quel.plan.hash.probes", "quel.plan.hash.hits",
	}
	r := NewRegistry()
	for _, n := range planSet {
		r.Counter(n)
	}
	r.Counter("quel.plan.hash.probes").Add(4)
	r.Counter("quel.plan.hash.hits").Add(2)
	if err := ValidateDoc(r.Doc()); err != nil {
		t.Fatalf("ValidateDoc: %v", err)
	}

	// A planner metric that is not a counter is malformed.
	bad := NewRegistry()
	for _, n := range planSet {
		bad.Counter(n)
	}
	doc := bad.Doc()
	for i := range doc.Metrics {
		if doc.Metrics[i].Name == "quel.plan.scan.index" {
			doc.Metrics[i].Kind = "histogram"
		}
	}
	if err := ValidateDoc(doc); err == nil {
		t.Fatal("ValidateDoc accepted non-counter planner metric")
	}

	// Hash hits without probes cannot happen in a coherent snapshot.
	r2 := NewRegistry()
	for _, n := range planSet {
		r2.Counter(n)
	}
	r2.Counter("quel.plan.hash.hits").Add(1)
	if err := ValidateDoc(r2.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted hash hits with zero probes")
	}

	// A partial planner set means a truncated emission.
	r3 := NewRegistry()
	r3.Counter("quel.plan.scan.full")
	if err := ValidateDoc(r3.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted partial planner counter set")
	}
}

func TestValidateGroupCommitMetrics(t *testing.T) {
	full := func() *Registry {
		r := NewRegistry()
		r.Counter("wal.group.batches")
		r.Counter("wal.group.txns")
		r.Histogram("wal.group.size")
		r.Histogram("wal.group.wait.ns")
		return r
	}
	r := full()
	r.Counter("wal.group.batches").Add(2)
	r.Counter("wal.group.txns").Add(7)
	r.Histogram("wal.group.size").Observe(128)
	if err := ValidateDoc(r.Doc()); err != nil {
		t.Fatalf("ValidateDoc: %v", err)
	}

	// A partial group set means a truncated emission.
	r2 := NewRegistry()
	r2.Counter("wal.group.batches")
	if err := ValidateDoc(r2.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted partial group-commit metric set")
	}

	// Wrong kind for a member of the set.
	r3 := NewRegistry()
	r3.Counter("wal.group.batches")
	r3.Counter("wal.group.txns")
	r3.Counter("wal.group.size") // must be a histogram
	r3.Histogram("wal.group.wait.ns")
	if err := ValidateDoc(r3.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted counter-kinded wal.group.size")
	}

	// Transactions flushed with zero batches cannot happen.
	r4 := full()
	r4.Counter("wal.group.txns").Add(3)
	if err := ValidateDoc(r4.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted txns with zero batches")
	}
}

func TestValidateReplicationMetrics(t *testing.T) {
	full := func() *Registry {
		r := NewRegistry()
		r.Counter("repl.batches.shipped")
		r.Counter("repl.batches.applied")
		r.Counter("repl.txns.applied")
		r.Histogram("repl.lag.csn")
		r.Histogram("repl.lag.ns")
		r.Counter("repl.ship.retries")
		r.Counter("repl.ship.poisoned")
		r.Counter("repl.reads.refused")
		return r
	}
	r := full()
	r.Counter("repl.batches.shipped").Add(5)
	r.Counter("repl.batches.applied").Add(5)
	r.Counter("repl.txns.applied").Add(12)
	r.Histogram("repl.lag.csn").Observe(0)
	r.Histogram("repl.lag.ns").Observe(1500)
	if err := ValidateDoc(r.Doc()); err != nil {
		t.Fatalf("ValidateDoc: %v", err)
	}

	// A partial replication set means a truncated emission.
	r2 := NewRegistry()
	r2.Counter("repl.batches.shipped")
	if err := ValidateDoc(r2.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted partial replication metric set")
	}

	// Wrong kind for a member of the set.
	r3 := full()
	doc := r3.Doc()
	for i := range doc.Metrics {
		if doc.Metrics[i].Name == "repl.lag.csn" {
			doc.Metrics[i].Kind = "counter"
		}
	}
	if err := ValidateDoc(doc); err == nil {
		t.Fatal("ValidateDoc accepted counter-kinded repl.lag.csn")
	}

	// A replica cannot apply more batches than were ever shipped.
	r4 := full()
	r4.Counter("repl.batches.shipped").Add(1)
	r4.Counter("repl.batches.applied").Add(2)
	if err := ValidateDoc(r4.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted applied > shipped")
	}

	// Lag is only observed on apply.
	r5 := full()
	r5.Histogram("repl.lag.csn").Observe(3)
	if err := ValidateDoc(r5.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted lag observations with zero applied batches")
	}

	// Transactions are applied inside batches.
	r6 := full()
	r6.Counter("repl.txns.applied").Add(1)
	if err := ValidateDoc(r6.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted applied txns with zero applied batches")
	}
}

func TestJSONRoundTripAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("wal.append.records").Add(10)
	r.Histogram("wal.fsync.ns").Observe(12345)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc SnapshotDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if err := ValidateDoc(doc); err != nil {
		t.Fatalf("round-trip validate: %v", err)
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("handler status %d", rec.Code)
	}
	var doc2 SnapshotDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc2); err != nil {
		t.Fatalf("handler body: %v", err)
	}
	if len(doc2.Metrics) != 2 {
		t.Fatalf("handler metrics = %d, want 2", len(doc2.Metrics))
	}
}

func TestTraceRing(t *testing.T) {
	r := NewRegistry()
	tr := r.Trace()
	tr.Point("x", "dropped while disabled")
	if got := tr.Events(0); len(got) != 0 {
		t.Fatalf("disabled trace recorded %d events", len(got))
	}
	tr.SetEnabled(true)
	if !tr.Enabled() {
		t.Fatal("not enabled")
	}
	start := time.Now()
	tr.Emit("wal.fsync", "mdm.wal", start, 42*time.Microsecond)
	tr.Point("txn.deadlock", "victim=7")
	evs := tr.Events(0)
	if len(evs) != 2 || evs[0].Name != "wal.fsync" || evs[1].Name != "txn.deadlock" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Fatalf("seq not increasing")
	}
	// Events(after) filters.
	if got := tr.Events(evs[0].Seq); len(got) != 1 || got[0].Name != "txn.deadlock" {
		t.Fatalf("Events(after) = %+v", got)
	}
	if tr.LastSeq() != evs[1].Seq {
		t.Fatalf("LastSeq = %d, want %d", tr.LastSeq(), evs[1].Seq)
	}
	// Overflow keeps the most recent traceCap events.
	for i := 0; i < traceCap+10; i++ {
		tr.Point("spin", "")
	}
	evs = tr.Events(0)
	if len(evs) != traceCap {
		t.Fatalf("ring kept %d events, want %d", len(evs), traceCap)
	}
	// A nil trace is a no-op.
	var nt *Trace
	nt.Point("x", "")
	nt.SetEnabled(true)
	if nt.Enabled() || nt.Events(0) != nil || nt.LastSeq() != 0 {
		t.Fatal("nil trace misbehaved")
	}
}

func TestValidateSnapshotMetrics(t *testing.T) {
	full := func() *Registry {
		r := NewRegistry()
		r.Counter("snap.reads")
		r.Histogram("snap.csn.lag")
		r.Counter("snap.gc.reclaimed")
		return r
	}
	r := full()
	r.Counter("snap.reads").Add(12)
	r.Histogram("snap.csn.lag").Observe(3)
	if err := ValidateDoc(r.Doc()); err != nil {
		t.Fatalf("ValidateDoc: %v", err)
	}

	// A freshly opened store registers the set with everything at zero.
	if err := ValidateDoc(full().Doc()); err != nil {
		t.Fatalf("ValidateDoc rejected idle snapshot metric set: %v", err)
	}

	// A partial set means a truncated emission.
	r2 := NewRegistry()
	r2.Counter("snap.reads")
	if err := ValidateDoc(r2.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted partial snapshot metric set")
	}

	// Wrong kind for a member of the set.
	r3 := NewRegistry()
	r3.Counter("snap.reads")
	r3.Counter("snap.csn.lag") // must be a histogram
	r3.Counter("snap.gc.reclaimed")
	if err := ValidateDoc(r3.Doc()); err == nil {
		t.Fatal("ValidateDoc accepted counter-kinded snap.csn.lag")
	}

	// Lag observations with zero reads are legal: fuzzy checkpoints pin
	// and close snapshots without reading through the Snap scan API.
	r4 := full()
	r4.Histogram("snap.csn.lag").Observe(1)
	if err := ValidateDoc(r4.Doc()); err != nil {
		t.Fatalf("ValidateDoc rejected csn lag from a read-free checkpoint snapshot: %v", err)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pool.active")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(5)
	if got := g.Value(); got != 6 {
		t.Fatalf("Value = %d, want 6", got)
	}
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("after Set: %d, want 2", got)
	}
	if g2 := r.Gauge("pool.active"); g2 != g {
		t.Fatalf("Gauge handle not stable")
	}
	// Gauges snapshot with kind "gauge" and the current level.
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "gauge" || snap[0].Level != 2 {
		t.Fatalf("gauge snapshot wrong: %+v", snap)
	}
	if err := ValidateDoc(r.Doc()); err != nil {
		t.Fatalf("ValidateDoc: %v", err)
	}
	// Nil registry and nil gauge are no-ops.
	var nr *Registry
	ng := nr.Gauge("x")
	ng.Inc()
	ng.Set(9)
	if ng.Value() != 0 {
		t.Fatalf("nil gauge counted")
	}
}

func TestValidateServerMetrics(t *testing.T) {
	full := func() *Registry {
		r := NewRegistry()
		r.Counter("server.conns.total").Add(4)
		r.Gauge("server.conns.active").Set(2)
		r.Gauge("server.exec.active").Set(1)
		r.Gauge("server.exec.queued").Set(0)
		r.Histogram("server.frame.ns").Observe(1500)
		r.Counter("server.admission.shed").Add(1)
		r.Counter("server.admission.queued").Add(2)
		r.Counter("server.stmts.prepared").Add(3)
		r.Counter("server.cancels.delivered")
		return r
	}
	if err := ValidateDoc(full().Doc()); err != nil {
		t.Fatalf("complete server set rejected: %v", err)
	}
	// Missing one metric of the set fails.
	r := full()
	delete(r.metrics, "server.admission.shed")
	if err := ValidateDoc(r.Doc()); err == nil {
		t.Fatal("incomplete server set accepted")
	}
	// Frames observed with zero connections is incoherent.
	r2 := NewRegistry()
	r2.Counter("server.conns.total")
	r2.Gauge("server.conns.active")
	r2.Gauge("server.exec.active")
	r2.Gauge("server.exec.queued")
	r2.Histogram("server.frame.ns").Observe(10)
	r2.Counter("server.admission.shed")
	r2.Counter("server.admission.queued")
	r2.Counter("server.stmts.prepared")
	r2.Counter("server.cancels.delivered")
	if err := ValidateDoc(r2.Doc()); err == nil {
		t.Fatal("frames-without-connections accepted")
	}
}

func TestValidateCheckpointMetrics(t *testing.T) {
	full := func() *Registry {
		r := NewRegistry()
		r.Counter("storage.ckpt.relations").Add(10)
		r.Counter("storage.ckpt.segments.written").Add(3)
		r.Counter("storage.ckpt.segments.skipped").Add(7)
		r.Counter("storage.ckpt.bytes").Add(4096)
		r.Counter("storage.ckpt.auto").Add(1)
		r.Histogram("storage.ckpt.stall.ns").Observe(1000)
		r.Histogram("storage.ckpt.fuzzy.ns").Observe(5000)
		return r
	}
	if err := ValidateDoc(full().Doc()); err != nil {
		t.Fatalf("complete checkpoint set rejected: %v", err)
	}
	// A freshly opened store registers the set with everything at zero.
	r0 := NewRegistry()
	for _, c := range []string{
		"storage.ckpt.relations", "storage.ckpt.segments.written",
		"storage.ckpt.segments.skipped", "storage.ckpt.bytes", "storage.ckpt.auto",
	} {
		r0.Counter(c)
	}
	r0.Histogram("storage.ckpt.stall.ns")
	r0.Histogram("storage.ckpt.fuzzy.ns")
	if err := ValidateDoc(r0.Doc()); err != nil {
		t.Fatalf("idle checkpoint set rejected: %v", err)
	}
	// Missing one metric of the set fails.
	r := full()
	delete(r.metrics, "storage.ckpt.fuzzy.ns")
	if err := ValidateDoc(r.Doc()); err == nil {
		t.Fatal("incomplete checkpoint set accepted")
	}
	// Every relation a checkpoint considers is either written or
	// skipped; more segments than relations is incoherent.
	r2 := full()
	r2.Counter("storage.ckpt.segments.skipped").Add(10)
	if err := ValidateDoc(r2.Doc()); err == nil {
		t.Fatal("written+skipped > relations accepted")
	}
	// Wrong kind for a member of the set.
	r3 := full()
	delete(r3.metrics, "storage.ckpt.stall.ns")
	r3.Counter("storage.ckpt.stall.ns")
	if err := ValidateDoc(r3.Doc()); err == nil {
		t.Fatal("counter-kinded storage.ckpt.stall.ns accepted")
	}
}

func TestValidateIngestMetrics(t *testing.T) {
	full := func() *Registry {
		r := NewRegistry()
		r.Counter("ingest.works").Add(100)
		r.Counter("ingest.notes").Add(900)
		r.Counter("ingest.batches").Add(4)
		r.Counter("ingest.errors")
		r.Counter("ingest.bytes").Add(65536)
		r.Histogram("ingest.batch.ns").Observe(1000)
		return r
	}
	if err := ValidateDoc(full().Doc()); err != nil {
		t.Fatalf("complete ingest set rejected: %v", err)
	}
	// A loader that never ran registers the set with everything at zero.
	r0 := NewRegistry()
	for _, c := range []string{
		"ingest.works", "ingest.notes", "ingest.batches", "ingest.errors", "ingest.bytes",
	} {
		r0.Counter(c)
	}
	r0.Histogram("ingest.batch.ns")
	if err := ValidateDoc(r0.Doc()); err != nil {
		t.Fatalf("idle ingest set rejected: %v", err)
	}
	// Missing one metric of the set fails.
	r := full()
	delete(r.metrics, "ingest.batch.ns")
	if err := ValidateDoc(r.Doc()); err == nil {
		t.Fatal("incomplete ingest set accepted")
	}
	// Works committed outside any batch are incoherent.
	r2 := NewRegistry()
	r2.Counter("ingest.works").Add(5)
	r2.Counter("ingest.notes").Add(50)
	r2.Counter("ingest.batches")
	r2.Counter("ingest.errors")
	r2.Counter("ingest.bytes")
	r2.Histogram("ingest.batch.ns")
	if err := ValidateDoc(r2.Doc()); err == nil {
		t.Fatal("works without batches accepted")
	}
	// More batches than works (empty batches) are incoherent.
	r3 := full()
	r3.Counter("ingest.batches").Add(1000)
	if err := ValidateDoc(r3.Doc()); err == nil {
		t.Fatal("batches > works accepted")
	}
	// Every work carries at least one note.
	r4 := full()
	r4.Counter("ingest.works").Add(10000)
	if err := ValidateDoc(r4.Doc()); err == nil {
		t.Fatal("notes < works accepted")
	}
	// Wrong kind for a member of the set.
	r5 := full()
	delete(r5.metrics, "ingest.bytes")
	r5.Histogram("ingest.bytes")
	if err := ValidateDoc(r5.Doc()); err == nil {
		t.Fatal("histogram-kinded ingest.bytes accepted")
	}
}
