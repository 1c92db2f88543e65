// Package txn provides transaction identity and two-phase locking for the
// music data manager.
//
// §2 of the paper requires the MDM to provide standard concurrency
// control so that many clients (editors, typesetters, composition tools,
// analysis programs) can share one database.  This package implements a
// strict two-phase locking protocol: shared and exclusive locks on named
// resources (relations or individual entities), FIFO fairness among
// waiters, lock upgrade, and deadlock detection by cycle search in the
// waits-for graph.  A transaction chosen as deadlock victim receives
// ErrDeadlock and is expected to abort and release its locks.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Mode is a lock mode.
type Mode int

// The lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// ErrDeadlock is returned to a transaction chosen as a deadlock victim.
var ErrDeadlock = errors.New("txn: deadlock detected; transaction must abort")

// ErrTimeout is returned when a lock wait exceeds the manager's timeout.
var ErrTimeout = errors.New("txn: lock wait timeout")

// ErrCanceled is returned when a lock wait is abandoned because the
// requester's context was canceled or its deadline passed.  Unlike
// ErrDeadlock/ErrTimeout it is not transient: the client asked the
// statement to stop, so retry layers must not re-run it.
var ErrCanceled = errors.New("txn: lock wait canceled")

// waiter is a blocked lock request.
type waiter struct {
	tx    uint64
	mode  Mode
	ready chan error // closed with nil on grant, error on victim/timeout
}

// lockState tracks one resource's holders and wait queue.
type lockState struct {
	holders map[uint64]Mode // txid → strongest held mode
	queue   []*waiter
}

// LockManager grants and releases locks.  All state is guarded by one
// mutex; grant/release are short critical sections and blocking happens
// on per-waiter channels outside the lock.
//
// Resources are few (storage locks whole relations), so a resource's
// lockState is kept once created and reused by every later transaction;
// each transaction records the states it holds, and ReleaseAll visits
// only those.
type LockManager struct {
	mu    sync.Mutex
	locks map[string]*lockState
	// owned lists, per transaction, the lock states it holds; free
	// recycles the lists of finished transactions.
	owned map[uint64][]*lockState
	free  [][]*lockState
	// waitsFor[a][b] means transaction a waits for a lock held by b.
	waitsFor map[uint64]map[uint64]bool
	// waitTimeout bounds how long Acquire blocks; zero waits forever.
	// Timeouts are the backstop for stalls the waits-for graph cannot
	// see (e.g. a client that holds locks but never finishes).
	waitTimeout time.Duration

	// metrics, when set, receives lock-wait latencies and outcome
	// counters (see SetObserver).
	metrics atomic.Pointer[lockMetrics]
}

// lockMetrics holds the resolved obs handles for the lock manager.
type lockMetrics struct {
	acquires  *obs.Counter   // txn.lock.acquire: every granted request
	waits     *obs.Histogram // txn.lock.wait.ns: latency of blocked requests
	deadlocks *obs.Counter   // txn.deadlock: requests refused as deadlock victims
	timeouts  *obs.Counter   // txn.lock.timeout: waits abandoned by timeout
	cancels   *obs.Counter   // txn.lock.canceled: waits abandoned by context
	trace     *obs.Trace
}

// SetObserver wires the lock manager's metrics into reg: the
// txn.lock.acquire counter, the txn.lock.wait.ns histogram of blocked
// waits, and the txn.deadlock / txn.lock.timeout / txn.lock.canceled
// outcome counters.  Passing nil detaches.
func (m *LockManager) SetObserver(reg *obs.Registry) {
	if reg == nil {
		m.metrics.Store(nil)
		return
	}
	m.metrics.Store(&lockMetrics{
		acquires:  reg.Counter("txn.lock.acquire"),
		waits:     reg.Histogram("txn.lock.wait.ns"),
		deadlocks: reg.Counter("txn.deadlock"),
		timeouts:  reg.Counter("txn.lock.timeout"),
		cancels:   reg.Counter("txn.lock.canceled"),
		trace:     reg.Trace(),
	})
}

// observeWait records the outcome of a blocked lock request.
func (m *LockManager) observeWait(tx uint64, resource string, mode Mode, start time.Time, err error) {
	lm := m.metrics.Load()
	if lm == nil {
		return
	}
	dur := time.Since(start)
	lm.waits.Observe(dur.Nanoseconds())
	switch {
	case err == nil:
		lm.acquires.Inc()
	case errors.Is(err, ErrDeadlock):
		lm.deadlocks.Inc()
	case errors.Is(err, ErrTimeout):
		lm.timeouts.Inc()
	case errors.Is(err, ErrCanceled):
		lm.cancels.Inc()
	}
	if lm.trace.Enabled() {
		outcome := "granted"
		if err != nil {
			outcome = err.Error()
		}
		lm.trace.Emit("txn.lock.wait", fmt.Sprintf("tx=%d %s %s: %s", tx, mode, resource, outcome), start, dur)
	}
}

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{
		locks:    make(map[string]*lockState),
		owned:    make(map[uint64][]*lockState),
		waitsFor: make(map[uint64]map[uint64]bool),
	}
}

// Acquire obtains a lock on resource for transaction tx in the given
// mode, blocking until granted.  Re-acquiring an already-held lock is a
// no-op; acquiring Exclusive while holding Shared upgrades.  Returns
// ErrDeadlock if granting would deadlock and tx is chosen as victim.
func (m *LockManager) Acquire(tx uint64, resource string, mode Mode) error {
	return m.AcquireCtx(context.Background(), tx, resource, mode)
}

// AcquireCtx is Acquire with a cancelable wait: if ctx is canceled (or
// its deadline passes) while the request is blocked, the request is
// dequeued and ErrCanceled returned, wrapping ctx.Err() so callers can
// also match context.Canceled / context.DeadlineExceeded.  Cancellation
// uses the same wakeup machinery as the lock-wait timeout; an already
// grantable request is never refused by a canceled context.
func (m *LockManager) AcquireCtx(ctx context.Context, tx uint64, resource string, mode Mode) error {
	m.mu.Lock()
	ls := m.locks[resource]
	if ls == nil {
		ls = &lockState{holders: make(map[uint64]Mode)}
		m.locks[resource] = ls
	}
	if held, ok := ls.holders[tx]; ok && (held == Exclusive || mode == Shared) {
		m.mu.Unlock()
		return nil // already strong enough
	}
	if m.grantable(ls, tx, mode) {
		m.grant(ls, tx, mode)
		m.mu.Unlock()
		if lm := m.metrics.Load(); lm != nil {
			lm.acquires.Inc()
		}
		return nil
	}
	// Must wait.  Record waits-for edges and check for a cycle before
	// blocking: if adding this wait creates a cycle, this requester is
	// the victim.
	w := &waiter{tx: tx, mode: mode, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	m.addWaitEdges(ls, tx)
	if m.cycleFrom(tx) {
		m.removeWaiter(ls, w)
		m.clearWaitEdges(tx)
		m.mu.Unlock()
		if lm := m.metrics.Load(); lm != nil {
			lm.deadlocks.Inc()
		}
		return ErrDeadlock
	}
	timeout := m.waitTimeout
	m.mu.Unlock()

	start := time.Now()
	// Nil channels block forever, so the one select covers every
	// combination of timeout/ctx configuration.
	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case err := <-w.ready:
		m.mu.Lock()
		m.clearWaitEdges(tx)
		m.mu.Unlock()
		m.observeWait(tx, resource, mode, start, err)
		return err
	case <-timerC:
	case <-done:
	}
	// The grant races the wakeup: grants happen under m.mu, so once we
	// hold it the outcome is settled — either the ready channel has a
	// verdict (take it) or we are still queued (dequeue and fail).
	m.mu.Lock()
	select {
	case err := <-w.ready:
		m.clearWaitEdges(tx)
		m.mu.Unlock()
		m.observeWait(tx, resource, mode, start, err)
		return err
	default:
	}
	m.removeWaiter(ls, w)
	m.clearWaitEdges(tx)
	// Waiters queued behind the departed request may have been blocked
	// only by FIFO order (e.g. readers behind a timed-out writer).
	m.grantWaiters(ls)
	m.mu.Unlock()
	err := ErrTimeout
	if ctx != nil && ctx.Err() != nil {
		err = fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
	m.observeWait(tx, resource, mode, start, err)
	return err
}

// SetWaitTimeout bounds future Acquire waits; d <= 0 restores unbounded
// waiting.  A timed-out waiter receives ErrTimeout, which callers treat
// like a deadlock victim: abort, release, retry.
func (m *LockManager) SetWaitTimeout(d time.Duration) {
	m.mu.Lock()
	m.waitTimeout = d
	m.mu.Unlock()
}

// WaitTimeout returns the current lock-wait timeout (zero = unbounded).
func (m *LockManager) WaitTimeout() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.waitTimeout
}

// grantable reports whether tx may be granted mode on ls right now.
// FIFO fairness: a request must also not jump ahead of incompatible
// queued waiters (except for upgrades, which take priority to avoid
// self-blocking).
func (m *LockManager) grantable(ls *lockState, tx uint64, mode Mode) bool {
	upgrading := false
	if held, ok := ls.holders[tx]; ok && held == Shared && mode == Exclusive {
		upgrading = true
	}
	for holder, hm := range ls.holders {
		if holder == tx {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	if upgrading {
		return true // sole remaining holder; upgrade immediately
	}
	// Respect the queue: do not overtake waiting incompatible requests.
	for _, w := range ls.queue {
		if w.tx == tx {
			continue
		}
		if mode == Exclusive || w.mode == Exclusive {
			return false
		}
	}
	return true
}

// addWaitEdges records that tx waits for every incompatible holder of ls.
func (m *LockManager) addWaitEdges(ls *lockState, tx uint64) {
	edges := m.waitsFor[tx]
	if edges == nil {
		edges = make(map[uint64]bool)
		m.waitsFor[tx] = edges
	}
	for holder := range ls.holders {
		if holder != tx {
			edges[holder] = true
		}
	}
	// Also wait for earlier queued waiters (they will be granted first).
	for _, w := range ls.queue {
		if w.tx != tx {
			edges[w.tx] = true
		}
	}
}

func (m *LockManager) clearWaitEdges(tx uint64) {
	delete(m.waitsFor, tx)
}

// cycleFrom reports whether the waits-for graph has a cycle reachable
// from start (i.e. start transitively waits for itself).
func (m *LockManager) cycleFrom(start uint64) bool {
	seen := make(map[uint64]bool)
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		for v := range m.waitsFor[u] {
			if v == start {
				return true
			}
			if !seen[v] {
				seen[v] = true
				if dfs(v) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

func (m *LockManager) removeWaiter(ls *lockState, w *waiter) {
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			return
		}
	}
}

// grant records tx as holding mode on ls, adding ls to tx's owned list
// on its first grant there.  Caller holds m.mu.
func (m *LockManager) grant(ls *lockState, tx uint64, mode Mode) {
	if _, held := ls.holders[tx]; !held {
		list, ok := m.owned[tx]
		if !ok && len(m.free) > 0 {
			list = m.free[len(m.free)-1]
			m.free = m.free[:len(m.free)-1]
		}
		m.owned[tx] = append(list, ls)
	}
	ls.holders[tx] = mode
}

// ReleaseAll releases every lock held by tx, then grants any newly
// compatible waiters on those resources.  Called at commit or abort
// (strict 2PL releases everything at transaction end); a transaction
// runs on one goroutine, so it has no queued request of its own left.
func (m *LockManager) ReleaseAll(tx uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clearWaitEdges(tx)
	list, ok := m.owned[tx]
	if !ok {
		return
	}
	delete(m.owned, tx)
	for i, ls := range list {
		delete(ls.holders, tx)
		m.grantWaiters(ls)
		list[i] = nil
	}
	m.free = append(m.free, list[:0])
}

// grantWaiters grants queued requests, in order, while they remain
// compatible with the holders.
func (m *LockManager) grantWaiters(ls *lockState) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		compatible := true
		for holder, hm := range ls.holders {
			if holder == w.tx {
				if hm == Shared && w.mode == Exclusive && len(ls.holders) == 1 {
					continue // upgrade
				}
				continue
			}
			if w.mode == Exclusive || hm == Exclusive {
				compatible = false
				break
			}
		}
		if !compatible {
			return
		}
		mode := w.mode
		if ls.holders[w.tx] == Exclusive {
			mode = Exclusive
		}
		m.grant(ls, w.tx, mode)
		ls.queue = ls.queue[1:]
		w.ready <- nil
	}
}

// Held reports the mode tx holds on resource, if any.
func (m *LockManager) Held(tx uint64, resource string) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.locks[resource]
	if ls == nil {
		return 0, false
	}
	mode, ok := ls.holders[tx]
	return mode, ok
}

// Stats returns the current number of locked resources and blocked
// waiters, for monitoring and tests.
func (m *LockManager) Stats() (resources, waiters int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ls := range m.locks {
		if len(ls.holders) > 0 || len(ls.queue) > 0 {
			resources++
		}
		waiters += len(ls.queue)
	}
	return resources, waiters
}

// IDSource allocates monotonically increasing transaction identifiers.
type IDSource struct {
	mu   sync.Mutex
	next uint64
}

// NewIDSource returns an IDSource starting after the given last-used id.
func NewIDSource(lastUsed uint64) *IDSource { return &IDSource{next: lastUsed + 1} }

// Next returns a fresh transaction id.
func (s *IDSource) Next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	return id
}

// String renders a lock manager summary for debugging.
func (m *LockManager) String() string {
	r, w := m.Stats()
	return fmt.Sprintf("lockmgr[%d resources, %d waiters]", r, w)
}
