package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// SnapshotDoc is the JSON document served by the HTTP endpoint.
// SchemaVersion guards downstream consumers against silent format
// drift.
type SnapshotDoc struct {
	SchemaVersion int      `json:"schema_version"`
	Metrics       []Metric `json:"metrics"`
}

// SnapshotSchemaVersion is the current SnapshotDoc format version.
const SnapshotSchemaVersion = 1

// Doc returns the registry's snapshot wrapped in a versioned document.
func (r *Registry) Doc() SnapshotDoc {
	return SnapshotDoc{SchemaVersion: SnapshotSchemaVersion, Metrics: r.Snapshot()}
}

// WriteJSON writes the versioned snapshot document as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Doc())
}

// Handler returns an expvar-style HTTP handler serving the registry
// snapshot as JSON (mount it wherever the embedding process serves
// debug endpoints, e.g. /debug/mdm/metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// ValidateDoc checks a decoded snapshot document for structural sanity:
// correct schema version, non-empty metric names, known kinds, histogram
// bucket counts consistent with the total count, and coherent query
// planner (quel.plan.*), group-commit (wal.group.*), snapshot-read
// (snap.*), replication (repl.*), and checkpoint (storage.ckpt.*) metric
// sets.  It is the check the mdmbench workloads apply to their emitted
// snapshots.
func ValidateDoc(d SnapshotDoc) error {
	if d.SchemaVersion != SnapshotSchemaVersion {
		return &ValidationError{Reason: "unsupported schema_version"}
	}
	if len(d.Metrics) == 0 {
		return &ValidationError{Reason: "no metrics"}
	}
	plan := map[string]uint64{}
	group := map[string]Metric{}
	snap := map[string]Metric{}
	repl := map[string]Metric{}
	server := map[string]Metric{}
	ckpt := map[string]Metric{}
	ing := map[string]Metric{}
	for _, m := range d.Metrics {
		if m.Name == "" {
			return &ValidationError{Reason: "metric with empty name"}
		}
		if strings.HasPrefix(m.Name, "quel.plan.") {
			if m.Kind != "counter" {
				return &ValidationError{Reason: "planner metric " + m.Name + ": must be a counter, not " + m.Kind}
			}
			plan[m.Name] = m.Value
		}
		if strings.HasPrefix(m.Name, "wal.group.") {
			group[m.Name] = m
		}
		if strings.HasPrefix(m.Name, "snap.") {
			snap[m.Name] = m
		}
		if strings.HasPrefix(m.Name, "repl.") {
			repl[m.Name] = m
		}
		if strings.HasPrefix(m.Name, "server.") {
			server[m.Name] = m
		}
		if strings.HasPrefix(m.Name, "storage.ckpt.") {
			ckpt[m.Name] = m
		}
		if strings.HasPrefix(m.Name, "ingest.") {
			ing[m.Name] = m
		}
		switch m.Kind {
		case "counter", "gauge":
		case "histogram":
			var n uint64
			for _, b := range m.Buckets {
				n += b.N
			}
			if n != m.Count {
				return &ValidationError{Reason: "histogram " + m.Name + ": bucket counts do not sum to count"}
			}
		default:
			return &ValidationError{Reason: "metric " + m.Name + ": unknown kind " + m.Kind}
		}
	}
	// Planner counters are registered as a set; a snapshot carrying some
	// without the others, or hash hits without probes, indicates a
	// malformed or truncated emission.
	if len(plan) > 0 {
		for _, name := range []string{
			"quel.plan.scan.full", "quel.plan.scan.index",
			"quel.plan.join.hash", "quel.plan.join.loop", "quel.plan.join.probe",
			"quel.plan.hash.probes", "quel.plan.hash.hits",
		} {
			if _, ok := plan[name]; !ok {
				return &ValidationError{Reason: "planner metrics present but " + name + " missing"}
			}
		}
		if plan["quel.plan.hash.hits"] > 0 && plan["quel.plan.hash.probes"] == 0 {
			return &ValidationError{Reason: "quel.plan.hash.hits > 0 with no probes"}
		}
	}
	// Group-commit metrics (wal.group.*) are likewise registered as a
	// set by the commit pipeline: two counters and two histograms, with
	// every flushed transaction accounted to some batch.
	if len(group) > 0 {
		for name, kind := range map[string]string{
			"wal.group.batches": "counter",
			"wal.group.txns":    "counter",
			"wal.group.size":    "histogram",
			"wal.group.wait.ns": "histogram",
		} {
			m, ok := group[name]
			if !ok {
				return &ValidationError{Reason: "group-commit metrics present but " + name + " missing"}
			}
			if m.Kind != kind {
				return &ValidationError{Reason: "group-commit metric " + name + ": must be a " + kind + ", not " + m.Kind}
			}
		}
		if group["wal.group.txns"].Value > 0 && group["wal.group.batches"].Value == 0 {
			return &ValidationError{Reason: "wal.group.txns > 0 with no batches"}
		}
	}
	// Snapshot-read metrics (snap.*) are registered as a set by the MVCC
	// store: a read counter, a CSN-lag histogram, and a GC counter.
	// (Lag can be observed with zero reads: fuzzy checkpoints pin and
	// close snapshots without reading through the Snap scan API.)
	if len(snap) > 0 {
		for name, kind := range map[string]string{
			"snap.reads":        "counter",
			"snap.csn.lag":      "histogram",
			"snap.gc.reclaimed": "counter",
		} {
			m, ok := snap[name]
			if !ok {
				return &ValidationError{Reason: "snapshot metrics present but " + name + " missing"}
			}
			if m.Kind != kind {
				return &ValidationError{Reason: "snapshot metric " + name + ": must be a " + kind + ", not " + m.Kind}
			}
		}
	}
	// Replication metrics (repl.*) are registered as a set by the WAL
	// shipper.  A replica cannot apply what was never shipped, a lag
	// observation is only taken on apply, and transactions are applied
	// inside batches.
	if len(repl) > 0 {
		for name, kind := range map[string]string{
			"repl.batches.shipped": "counter",
			"repl.batches.applied": "counter",
			"repl.txns.applied":    "counter",
			"repl.lag.csn":         "histogram",
			"repl.lag.ns":          "histogram",
			"repl.ship.retries":    "counter",
			"repl.ship.poisoned":   "counter",
			"repl.reads.refused":   "counter",
		} {
			m, ok := repl[name]
			if !ok {
				return &ValidationError{Reason: "replication metrics present but " + name + " missing"}
			}
			if m.Kind != kind {
				return &ValidationError{Reason: "replication metric " + name + ": must be a " + kind + ", not " + m.Kind}
			}
		}
		if repl["repl.batches.applied"].Value > repl["repl.batches.shipped"].Value {
			return &ValidationError{Reason: "repl.batches.applied exceeds repl.batches.shipped"}
		}
		if repl["repl.lag.csn"].Count > 0 && repl["repl.batches.applied"].Value == 0 {
			return &ValidationError{Reason: "repl.lag.csn observed with no applied batches"}
		}
		if repl["repl.txns.applied"].Value > 0 && repl["repl.batches.applied"].Value == 0 {
			return &ValidationError{Reason: "repl.txns.applied > 0 with no applied batches"}
		}
	}
	// Network-server metrics (server.*) are registered as a set when a
	// server wraps the manager: connection counters and gauges, per-frame
	// latency, and admission-control shed counts.  A frame cannot have
	// been served without a connection, and a request cannot have been
	// shed by a server that admitted nothing and queued nothing.
	if len(server) > 0 {
		for name, kind := range map[string]string{
			"server.conns.total":       "counter",
			"server.conns.active":      "gauge",
			"server.exec.active":       "gauge",
			"server.exec.queued":       "gauge",
			"server.frame.ns":          "histogram",
			"server.admission.shed":    "counter",
			"server.admission.queued":  "counter",
			"server.stmts.prepared":    "counter",
			"server.cancels.delivered": "counter",
		} {
			m, ok := server[name]
			if !ok {
				return &ValidationError{Reason: "server metrics present but " + name + " missing"}
			}
			if m.Kind != kind {
				return &ValidationError{Reason: "server metric " + name + ": must be a " + kind + ", not " + m.Kind}
			}
		}
		if server["server.frame.ns"].Count > 0 && server["server.conns.total"].Value == 0 {
			return &ValidationError{Reason: "server.frame.ns observed with no connections"}
		}
	}
	// Checkpoint metrics (storage.ckpt.*) are registered as a set by the
	// storage engine.  Every relation a checkpoint considers is either
	// rewritten or skipped, so written + skipped can never exceed
	// relations (equality holds at quiescence; a snapshot taken while a
	// checkpoint is mid-install may be one relation short).
	if len(ckpt) > 0 {
		for name, kind := range map[string]string{
			"storage.ckpt.relations":        "counter",
			"storage.ckpt.segments.written": "counter",
			"storage.ckpt.segments.skipped": "counter",
			"storage.ckpt.bytes":            "counter",
			"storage.ckpt.auto":             "counter",
			"storage.ckpt.stall.ns":         "histogram",
			"storage.ckpt.fuzzy.ns":         "histogram",
		} {
			m, ok := ckpt[name]
			if !ok {
				return &ValidationError{Reason: "checkpoint metrics present but " + name + " missing"}
			}
			if m.Kind != kind {
				return &ValidationError{Reason: "checkpoint metric " + name + ": must be a " + kind + ", not " + m.Kind}
			}
		}
		written, skipped := ckpt["storage.ckpt.segments.written"].Value, ckpt["storage.ckpt.segments.skipped"].Value
		if rels := ckpt["storage.ckpt.relations"].Value; written+skipped > rels {
			return &ValidationError{Reason: "storage.ckpt segments written+skipped exceed relations considered"}
		}
	}
	// Bulk-ingest metrics (ingest.*) are registered as a set by the
	// loader.  Every committed work rides in some batch, every work
	// carries at least one incipit note (the converters reject empty
	// payloads), and a batch is only flushed with at least one work.
	if len(ing) > 0 {
		for name, kind := range map[string]string{
			"ingest.works":    "counter",
			"ingest.notes":    "counter",
			"ingest.batches":  "counter",
			"ingest.errors":   "counter",
			"ingest.bytes":    "counter",
			"ingest.batch.ns": "histogram",
		} {
			m, ok := ing[name]
			if !ok {
				return &ValidationError{Reason: "ingest metrics present but " + name + " missing"}
			}
			if m.Kind != kind {
				return &ValidationError{Reason: "ingest metric " + name + ": must be a " + kind + ", not " + m.Kind}
			}
		}
		if ing["ingest.works"].Value > 0 && ing["ingest.batches"].Value == 0 {
			return &ValidationError{Reason: "ingest.works > 0 with no batches"}
		}
		if ing["ingest.batches"].Value > ing["ingest.works"].Value {
			return &ValidationError{Reason: "ingest.batches exceeds ingest.works"}
		}
		if ing["ingest.notes"].Value < ing["ingest.works"].Value {
			return &ValidationError{Reason: "ingest.notes below ingest.works"}
		}
	}
	return nil
}

// ValidationError reports a malformed snapshot document.
type ValidationError struct{ Reason string }

func (e *ValidationError) Error() string { return "obs: invalid snapshot: " + e.Reason }
