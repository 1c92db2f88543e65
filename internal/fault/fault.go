// Package fault provides controlled failure injection for the music data
// manager's durability layer.
//
// §2 of the paper requires the MDM to provide "standard" database
// guarantees — recovery among them — and guarantees that are never
// exercised are guarantees in name only.  This package supplies the two
// pieces needed to exercise them deterministically:
//
//   - a failpoint Registry: named points in the I/O path that tests can
//     arm to return errors, perform short writes, or simulate a process
//     crash (a panic carrying a CrashError sentinel);
//   - a virtual filesystem (the FS and File interfaces, the pass-through
//     Disk implementation, and the fault-injecting Injector) that the
//     storage engine uses instead of calling os.* directly.
//
// With no faults armed the Injector is a pass-through and the engine
// behaves exactly as it would on the real filesystem; Disk is the
// zero-cost default when no injection is wanted at all.
package fault

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
)

// ErrInjected is the default error returned by an armed failpoint whose
// Outcome carries no explicit error.
var ErrInjected = errors.New("fault: injected error")

// ErrCrashed is returned by every operation on an Injector after a
// simulated crash, until Recover is called.  A crashed process cannot
// touch the disk; neither can code holding stale handles.
var ErrCrashed = errors.New("fault: filesystem is down (simulated crash)")

// CrashError is the panic value used to simulate a process crash at a
// failpoint.  Harnesses recover it at the top of the workload, apply the
// Injector's crash-loss semantics, and reopen the database.
type CrashError struct{ Point string }

// Error implements error.
func (e CrashError) Error() string {
	return fmt.Sprintf("fault: simulated crash at %q", e.Point)
}

// AsCrash reports whether a recovered panic value is a simulated crash.
func AsCrash(v any) (CrashError, bool) {
	c, ok := v.(CrashError)
	return c, ok
}

// Outcome describes what an armed failpoint does when it fires.
type Outcome struct {
	// Err is returned from the faulted operation.  Nil means ErrInjected
	// (unless Crash is set, in which case the operation never returns).
	Err error
	// Crash simulates a process crash: the operation panics with a
	// CrashError after freezing the Injector, so no further I/O from the
	// "dead process" reaches the disk.
	Crash bool
	// Partial, for write operations, is the fraction of the buffer
	// (0..1) written to the underlying file before the fault takes
	// effect — a torn write.  Ignored by non-write operations.
	Partial float64
	// Block, when non-nil, stalls the faulted operation until the
	// channel is closed (or receives).  With no Err and no Crash the
	// operation then proceeds normally — a slow disk, not a broken one.
	// Combined with Err or Crash, the fault fires after the wait.
	// Tests use it to hold a checkpoint mid-write and prove the commit
	// path does not stall behind it.
	Block <-chan struct{}
}

// armedPoint is one armed failpoint: it fires on the nth hit after arming.
type armedPoint struct {
	remaining int
	outcome   Outcome
}

// Registry names failpoints and decides when they fire.  Points are
// identified by strings conventionally built with Point (op + ":" + file
// base name), e.g. "sync:mdm.wal" or "rename:mdm.manifest.tmp".  All hits
// are counted whether or not the point is armed, so harnesses can first
// measure how often a workload passes a point and then schedule crashes
// at every hit.
type Registry struct {
	mu    sync.Mutex
	armed map[string]*armedPoint
	hits  map[string]int
	fired map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		armed: make(map[string]*armedPoint),
		hits:  make(map[string]int),
		fired: make(map[string]int),
	}
}

// Point builds the conventional failpoint name for an operation on a
// path: op + ":" + the path's base name.
func Point(op, path string) string { return op + ":" + filepath.Base(path) }

// The operation names used by the Injector when constructing points.
const (
	OpCreate   = "create"
	OpOpen     = "open"
	OpRead     = "read"
	OpWrite    = "write"
	OpSync     = "sync"
	OpClose    = "close"
	OpTruncate = "truncate"
	OpRename   = "rename"
	OpRemove   = "remove"
	OpReadFile = "readfile"
	OpMkdir    = "mkdir"
	OpSyncDir  = "syncdir"
	// OpLogic names failpoints that are not file operations: control-flow
	// seams (e.g. inside the WAL group-commit flush, between the batched
	// append and the fsync) that tests crash at via Injector.Logic.
	OpLogic = "logic"
)

// Arm schedules the failpoint to fire on the nth hit from now (nth = 1
// fires on the very next hit).  A point fires once and disarms itself;
// re-arm to fire again.
func (r *Registry) Arm(point string, nth int, o Outcome) {
	if nth < 1 {
		nth = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed[point] = &armedPoint{remaining: nth, outcome: o}
}

// Disarm removes any armed outcome for the point.
func (r *Registry) Disarm(point string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.armed, point)
}

// DisarmAll removes every armed outcome.
func (r *Registry) DisarmAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = make(map[string]*armedPoint)
}

// Hit records one pass through the point and reports whether an armed
// outcome fires now.  A nil registry never fires.
func (r *Registry) Hit(point string) (Outcome, bool) {
	if r == nil {
		return Outcome{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits[point]++
	ap := r.armed[point]
	if ap == nil {
		return Outcome{}, false
	}
	ap.remaining--
	if ap.remaining > 0 {
		return Outcome{}, false
	}
	delete(r.armed, point)
	r.fired[point]++
	return ap.outcome, true
}

// Hits returns how many times the point has been passed (armed or not).
func (r *Registry) Hits(point string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[point]
}

// Fired returns how many times the point has fired.
func (r *Registry) Fired(point string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired[point]
}

// ResetCounters clears hit and fire counts (armed points are kept).
func (r *Registry) ResetCounters() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits = make(map[string]int)
	r.fired = make(map[string]int)
}
