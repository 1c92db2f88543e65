package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/mdm"
	"repro/internal/obs"
)

// stepResult is one executed operation as the runner sees it.
type stepResult struct {
	engine time.Duration // time inside the engine's public functions
	rows   int
	ok     bool
}

// worker is one load goroutine's closed-loop op source: each step
// generates the next operation of a deterministic stream, executes it
// and waits for the reply, and checks the reply.
type worker interface {
	step(ctx context.Context, tr *tracer, opID int64) stepResult
	// streamDigest hashes the classes and arguments generated so far.
	streamDigest() uint64
}

// schedule deals operation classes in blocks: every block holds each
// class exactly counts[class] times, in an order shuffled from the
// worker's seeded generator.  The mix is therefore exact at any run
// length, and two seeds differ in order and arguments, not in
// proportions.
type schedule struct {
	block []int
	pos   int
}

func newSchedule(counts []int) schedule {
	var s schedule
	for class, n := range counts {
		for ; n > 0; n-- {
			s.block = append(s.block, class)
		}
	}
	s.pos = len(s.block)
	return s
}

func (s *schedule) next(rng *rand.Rand) int {
	if s.pos == len(s.block) {
		rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	c := s.block[s.pos]
	s.pos++
	return c
}

// digest is a running hash of the classes and arguments a worker has
// generated: two runs executed the same op stream if and only if their
// digests agree.
type digest uint64

func (d *digest) add(v uint64) { *d = *d*1099511628211 + digest(v) }

// image is one workload's store, set up and ready for load.
type image interface {
	mdm() *mdm.MDM
	// worker returns load goroutine g of `of`.  embedded asks a served
	// workload for a worker that calls the engine in-process instead.
	worker(g, of int, embedded bool) (worker, error)
	// reopenTime is how long opening the checkpointed image took at set-up.
	reopenTime() time.Duration
	userBytes() int64
	// probe times the layers under the statements on the workload's own
	// data, once the passes are over; d is the traced pass's registry delta.
	probe(m map[string]float64, d obsDelta) error
	// verifyReopen closes the engine, reopens the directory and counts
	// acknowledged writes that are missing.
	verifyReopen() (checked, missed int, err error)
	close()
}

// scale is the data size of a run.
type scale struct{ works, notes, scores int }

var (
	fullScale  = scale{works: 5_000, notes: 20_000, scores: 200}
	quickScale = scale{works: 2_000, notes: 4_000, scores: 40}
)

// workloadDef names a workload and how to set it up.  The names are
// the ones BENCHMARK.json lists; later changes are gated on them.
type workloadDef struct {
	name    string
	clients int  // load goroutines (and connections, when served)
	served  bool // through internal/client and an in-process server
	writes  bool
	// setup builds the workload's store.  replay asks for the store the
	// traced run replays the op stream on, with the outermost layer
	// removed; a workload with nothing to strip has replays false.
	replays bool
	// minCheckpoints is how many background checkpoints must complete
	// inside a measured pass of ten seconds or more.
	minCheckpoints int
	setup          func(base string, seed int64, sc scale, clients int, replay bool) (image, error)
}

var workloadDefs = []workloadDef{
	// Served workloads replay embedded on an identical second store.
	{"catalogue-read", 2, true, false, true, 0, func(base string, seed int64, sc scale, clients int, _ bool) (image, error) {
		return setupCatalogue(base, seed, sc.works, false, clients)
	}},
	{"catalogue-mixed", 2, true, true, true, 5, func(base string, seed int64, sc scale, clients int, _ bool) (image, error) {
		return setupCatalogue(base, seed, sc.works, true, clients)
	}},
	{"score-query", 1, false, false, false, 0, func(base string, seed int64, sc scale, _ int, _ bool) (image, error) {
		return setupScore(base, seed, sc.notes, sc.scores, false, true)
	}},
	// The durable editor session replays on an in-memory store.
	{"score-edit", 1, false, true, true, 0, func(base string, seed int64, sc scale, _ int, replay bool) (image, error) {
		return setupScore(base, seed, sc.notes, sc.scores, true, !replay)
	}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// passLimit bounds a pass by time or, when counts is set, by a fixed
// number of operations per worker (exactly repeatable).
type passLimit struct {
	dur    time.Duration
	counts []int
}

// pass is what one closed-loop pass over the workers measured.
type pass struct {
	ops, failed int
	perWorker   []int
	lat         []float64                // engine time per op in ns, ascending
	windows     [timingWindows][]float64 // the same samples by the window the op completed in
	rows        int64
	wall        time.Duration
	engine      time.Duration // summed over workers
	busy        time.Duration // loop time summed over workers
	queuedMax   int64         // highest server.exec.queued seen at an op boundary
}

func (p pass) opsPerS() float64 { return ratio(float64(p.ops), p.wall.Seconds()) }

// timingWindows is how many equal slices of its wall time a pass is
// cut into for the end-to-end timing metrics.  Each is the median of
// the per-window values, so a burst of interference from the host (a
// neighbour's CPU or disk use, seconds long on the benchmark machine)
// spoils the windows it hits and not the run.
const timingWindows = 6

// timing returns the median over the windows of the throughput and of
// the latency percentiles q of each window.
func (p pass) timing(q ...float64) (opsPerS float64, quantiles []float64) {
	var rate []float64
	per := make([][]float64, len(q))
	for _, w := range p.windows {
		if len(w) == 0 {
			continue
		}
		rate = append(rate, float64(len(w))/(p.wall.Seconds()/timingWindows))
		sort.Float64s(w)
		for i, qi := range q {
			per[i] = append(per[i], quantile(w, qi))
		}
	}
	for _, v := range per {
		quantiles = append(quantiles, quantile(sortedCopy(v), 0.5))
	}
	return quantile(sortedCopy(rate), 0.5), quantiles
}

// selfRatio is the share of the load goroutines' time spent in the
// harness itself (generating operations and verifying replies).
func (p pass) selfRatio() float64 { return 1 - ratio(float64(p.engine), float64(p.busy)) }

// runPass drives every worker in its own goroutine until the limit.
func runPass(ctx context.Context, workers []worker, lim passLimit, tr *tracer, reg *obs.Registry) pass {
	type part struct {
		ops, failed  int
		lat, end     []float64 // per op: engine time, completion time since the pass began
		rows         int64
		engine, busy time.Duration
		queued       int64
	}
	parts := make([]part, len(workers))
	queued := reg.Gauge("server.exec.queued")
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(lim.dur)
	for g, w := range workers {
		wg.Add(1)
		go func(g int, w worker) {
			defer wg.Done()
			p := &parts[g]
			t0 := time.Now()
			for i := 0; ; i++ {
				if lim.counts != nil {
					if i >= lim.counts[g] {
						break
					}
				} else if time.Now().After(deadline) {
					break
				}
				r := w.step(ctx, tr, int64(i)*int64(len(workers))+int64(g))
				p.ops++
				if !r.ok {
					p.failed++
				}
				p.lat = append(p.lat, float64(r.engine))
				p.end = append(p.end, float64(time.Since(start)))
				p.rows += int64(r.rows)
				p.engine += r.engine
				if q := queued.Value(); q > p.queued {
					p.queued = q
				}
			}
			p.busy = time.Since(t0)
		}(g, w)
	}
	wg.Wait()
	out := pass{wall: time.Since(start)}
	for _, p := range parts {
		out.ops += p.ops
		out.failed += p.failed
		out.perWorker = append(out.perWorker, p.ops)
		out.lat = append(out.lat, p.lat...)
		for i, end := range p.end {
			w := min(int(end/float64(out.wall)*timingWindows), timingWindows-1)
			out.windows[w] = append(out.windows[w], p.lat[i])
		}
		out.rows += p.rows
		out.engine += p.engine
		out.busy += p.busy
		if p.queued > out.queuedMax {
			out.queuedMax = p.queued
		}
	}
	sort.Float64s(out.lat)
	return out
}

// runConfig is what one invocation fixes for every run it makes.
type runConfig struct {
	base    string // directory the stores are created under
	outDir  string // where trace files go
	sc      scale
	seconds float64 // measured-pass length
	ops     int     // >0: fixed op count per worker instead of seconds
	setups  int     // set-ups per untraced run; setup_s is their median
}

// runResult is one run of one workload: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Clients   int                `json:"clients"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Counts that must repeat exactly on a single-client workload.
	StreamDigest uint64 `json:"stream_digest"`
	TraceFile    string `json:"trace_file,omitempty"`
}

// maxSelfRatio is the share of a measured pass the harness may spend
// on itself before the run is refused: past it the numbers measure the
// generator, not the engine.
const maxSelfRatio = 0.10

func makeWorkers(im image, n int, embedded bool) ([]worker, error) {
	ws := make([]worker, n)
	for g := range ws {
		w, err := im.worker(g, n, embedded)
		if err != nil {
			return nil, err
		}
		ws[g] = w
	}
	return ws, nil
}

func (c runConfig) limit(share float64, clients int) passLimit {
	if c.ops > 0 {
		n := int(float64(c.ops) * share)
		if n < 1 {
			n = 1
		}
		counts := make([]int, clients)
		for i := range counts {
			counts[i] = n
		}
		return passLimit{counts: counts}
	}
	return passLimit{dur: time.Duration(c.seconds * share * float64(time.Second))}
}

func digestOf(ws []worker) uint64 {
	var d digest
	for _, w := range ws {
		d.add(w.streamDigest())
	}
	return uint64(d)
}

// loadClients is the number of load goroutines a workload runs with:
// never more than the CPUs, so the numbers measure the engine and not
// the scheduler.
func loadClients(def workloadDef) int {
	if n := runtime.NumCPU(); def.clients > n {
		return n
	}
	return def.clients
}

// runUntraced measures the end-to-end metrics of one workload: set up
// (several times, keeping the last), warm up, one measured closed-loop
// pass, final checkpoint, reopen verification.
func runUntraced(cfg runConfig, def workloadDef, seed int64) (*runResult, error) {
	ctx := context.Background()
	clients := loadClients(def)
	var im image
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if im != nil {
			im.close()
		}
		start := time.Now()
		var err error
		if im, err = def.setup(cfg.base, seed, cfg.sc, clients, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() { im.close() }()
	heap := liveHeapMB()
	workers, err := makeWorkers(im, clients, false)
	if err != nil {
		return nil, err
	}
	reg := im.mdm().Obs()
	warm := runPass(ctx, workers, cfg.limit(0.1, clients), nil, reg)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	obs0 := readObs(reg)
	p := runPass(ctx, workers, cfg.limit(1, clients), nil, reg)
	d := obsDelta{obs0, readObs(reg)}
	runtime.ReadMemStats(&ms1)

	if err := im.mdm().Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	disk, err := dirSize(im.mdm().Store.Dir())
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: def.name, Seed: seed, Clients: clients,
		Attempted: warm.ops + p.ops, Failed: warm.failed + p.failed, StreamDigest: digestOf(workers)}
	if def.writes {
		checked, missed, err := im.verifyReopen()
		if err != nil {
			return nil, err
		}
		res.Attempted += checked
		res.Failed += missed
	}
	if sr := p.selfRatio(); sr > maxSelfRatio {
		return nil, fmt.Errorf("%s: harness self ratio %.3f exceeds %.2f; the run measures the generator, not the engine", def.name, sr, maxSelfRatio)
	}
	if cfg.ops == 0 && cfg.seconds >= 10 {
		if n := d.count("storage.ckpt.auto"); n < float64(def.minCheckpoints) {
			return nil, fmt.Errorf("%s: %v background checkpoints completed, want at least %d", def.name, n, def.minCheckpoints)
		}
	}
	ops := float64(p.ops)
	opsPerS, pct := p.timing(0.50, 0.95)
	res.Metrics = map[string]float64{
		"ops_per_s":                opsPerS,
		"p50_ms":                   pct[0] / 1e6,
		"p95_ms":                   pct[1] / 1e6,
		"allocs_per_op":            float64(ms1.Mallocs-ms0.Mallocs) / ops,
		"alloc_kb_per_op":          float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops,
		"disk_bytes_per_user_byte": float64(disk) / float64(im.userBytes()),
		"live_heap_mb":             heap,
		"setup_s":                  quantile(sortedCopy(setupS), 0.5),
		// Reported beside the end-to-end metrics but not part of them
		// (zero on read-only workloads, or a fact about the harness).
		"wal_bytes_per_op":   d.count("wal.append.bytes") / ops,
		"fail_ratio":         ratio(float64(res.Failed), float64(res.Attempted)),
		"harness.self_ratio": p.selfRatio(),
	}
	return res, nil
}

// runTraced measures the per-layer metrics of one workload.  After the
// warm-up it runs a traced pass (spans around every call into a layer)
// between two halves of an untraced pass of the same length; their
// throughput ratio is the tracing overhead.  The op stream is then
// replayed with the outermost layer removed — a served workload
// embedded against an identical second store, the logged editor
// session on an in-memory one with no log — so that what that layer adds is the
// difference between the two; the pure functions of the served path
// are timed on each replayed operation's real request and reply.
func runTraced(cfg runConfig, def workloadDef, seed int64) (*runResult, error) {
	ctx := context.Background()
	clients := loadClients(def)
	im, err := def.setup(cfg.base, seed, cfg.sc, clients, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { im.close() }()
	workers, err := makeWorkers(im, clients, false)
	if err != nil {
		return nil, err
	}
	reg := im.mdm().Obs()
	warm := runPass(ctx, workers, cfg.limit(0.1, clients), nil, reg)

	// The traced pass sits between two halves of the untraced one, so
	// that a store that grows during the run slows both alike.
	before := runPass(ctx, workers, cfg.limit(0.25, clients), nil, reg)
	tr := newTracer()
	obs0 := readObs(reg)
	traced := runPass(ctx, workers, cfg.limit(0.5, clients), tr, reg)
	d := obsDelta{obs0, readObs(reg)}
	after := runPass(ctx, workers, cfg.limit(0.25, clients), nil, reg)
	untraced := ratio(float64(before.ops+after.ops), (before.wall + after.wall).Seconds())

	lm := layerInputs{def: def, traced: traced, delta: d, spans: tr.spans, im: im,
		overhead: 1 - ratio(traced.opsPerS(), untraced)}
	res := &runResult{Workload: def.name, Seed: seed, Traced: true, Clients: clients,
		Attempted:    warm.ops + before.ops + traced.ops + after.ops,
		Failed:       warm.failed + before.failed + traced.failed + after.failed,
		StreamDigest: digestOf(workers)}

	if def.replays {
		im2, err := def.setup(cfg.base, seed, cfg.sc, clients, true)
		if err != nil {
			return nil, fmt.Errorf("set-up of the replay store: %w", err)
		}
		defer im2.close()
		replayers, err := makeWorkers(im2, clients, def.served)
		if err != nil {
			return nil, err
		}
		reg2 := im2.mdm().Obs()
		skip := make([]int, clients) // what ran before the traced pass
		for g := range skip {
			skip[g] = warm.perWorker[g] + before.perWorker[g]
		}
		w2 := runPass(ctx, replayers, passLimit{counts: skip}, nil, reg2)
		tr2 := newTracer()
		replay := runPass(ctx, replayers, passLimit{counts: traced.perWorker}, tr2, reg2)
		res.Attempted += w2.ops + replay.ops
		res.Failed += w2.failed + replay.failed
		lm.replay, lm.replaySpans, lm.replayers = &replay, tr2.spans, replayers
	}
	metrics, err := layerMetrics(lm)
	if err != nil {
		return nil, err
	}
	res.Metrics = metrics

	if def.writes {
		checked, missed, err := im.verifyReopen()
		if err != nil {
			return nil, err
		}
		res.Attempted += checked
		res.Failed += missed
	}
	all := append(append([]span(nil), tr.spans...), lm.replaySpans...)
	for i := len(tr.spans); i < len(all); i++ { // keep IDs unique in the file
		all[i].ID += len(tr.spans)
		if all[i].Parent >= 0 {
			all[i].Parent += len(tr.spans)
		}
		all[i].Name = "replay/" + all[i].Name
	}
	if res.TraceFile, err = writeTrace(cfg.outDir, def.name, all, selfTimes(all)); err != nil {
		return nil, err
	}
	res.TraceFile = filepath.ToSlash(res.TraceFile)
	return res, nil
}
