package repl

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// Shipper is the leader side: it owns the post-fsync hook on the
// leader's group committer and fans every durable round out to the
// attached replica links.
type Shipper struct {
	db   *storage.DB
	opts Options
	m    *metrics

	failpoint func(name string) error // "repl.ship" seam; nil in production

	mu     sync.Mutex
	conns  []*shipConn
	seq    uint64
	closed bool
}

// shipConn is one attached replica link.
type shipConn struct {
	name  string
	conn  Conn
	queue chan *Batch   // async mode; nil when SyncShip
	done  chan struct{} // closed when the sender goroutine exits

	mu  sync.Mutex
	err error // poisoned; sticky
}

func (sc *shipConn) poisonedErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.err
}

// NewShipper wires a shipper onto the leader.  The leader must be a
// durable, logged database; the repl.* metrics land in its registry.
// The "repl.ship" logic failpoint is wired automatically when the
// leader's filesystem is a fault injector.
func NewShipper(db *storage.DB, opts Options) (*Shipper, error) {
	if db.IsReplica() {
		return nil, fmt.Errorf("repl: a replica cannot ship")
	}
	s := &Shipper{db: db, opts: opts.withDefaults(), m: newMetrics(db.Obs())}
	if lf, ok := db.FS().(interface{ Logic(string) error }); ok {
		s.failpoint = lf.Logic
	}
	return s, nil
}

// AddReplica bootstraps and attaches one replica link.  It checkpoints
// the leader and, inside the exclusive section — no append in flight —
// runs bootstrap with the leader's manifest path (the callback copies
// the image into the replica's directory) and registers conn, so conn's
// stream begins exactly where the image ends.  The ship hook is
// (re)installed in the same quiesced instant.
func (s *Shipper) AddReplica(name string, conn Conn, bootstrap func(manifestPath string) error) error {
	return s.db.CheckpointWith(func(manifestPath string) error {
		if bootstrap != nil {
			if err := bootstrap(manifestPath); err != nil {
				return err
			}
		}
		sc := &shipConn{name: name, conn: conn}
		if !s.opts.SyncShip {
			sc.queue = make(chan *Batch, s.opts.QueueLen)
			sc.done = make(chan struct{})
			go s.sender(sc)
		}
		s.mu.Lock()
		s.conns = append(s.conns, sc)
		s.mu.Unlock()
		return s.db.SetOnSync(s.onSync)
	})
}

// onSync is the post-fsync hook: it runs on the leader's flush
// goroutine with the records one fsync made durable, before any
// committer is woken.  SyncShip sends inline — a commit is not
// acknowledged until every live replica acked — while async mode
// enqueues for the per-replica senders.
func (s *Shipper) onSync(recs []*wal.Record) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.seq++
	b := &Batch{
		Seq:       s.seq,
		LeaderCSN: s.db.LastCSN(),
		ShippedAt: time.Now().UnixNano(),
		Records:   recs,
	}
	conns := make([]*shipConn, len(s.conns))
	copy(conns, s.conns)
	s.mu.Unlock()
	for _, sc := range conns {
		if sc.poisonedErr() != nil {
			continue
		}
		s.m.shipped.Inc()
		if sc.queue == nil {
			if err := s.sendWithRetry(sc, b); err != nil {
				s.poison(sc, err)
			}
			continue
		}
		select {
		case sc.queue <- b: // full queue blocks: backpressure, not loss
		case <-sc.done: // sender poisoned mid-round; drop
		}
	}
}

// sender drains one replica's queue in async mode, poisoning the link
// on a send that exhausts its retries.
func (s *Shipper) sender(sc *shipConn) {
	defer close(sc.done)
	for b := range sc.queue {
		if err := s.sendWithRetry(sc, b); err != nil {
			s.poison(sc, err)
			return
		}
	}
}

// sendWithRetry attempts one delivery up to MaxRetries times with
// doubling backoff.  The "repl.ship" failpoint fires before each
// physical send.
func (s *Shipper) sendWithRetry(sc *shipConn, b *Batch) error {
	backoff := s.opts.RetryBackoff
	var err error
	for attempt := 0; attempt < s.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			s.m.retries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		if s.failpoint != nil {
			if err = s.failpoint("repl.ship"); err != nil {
				continue
			}
		}
		if err = sc.conn.Send(b); err == nil {
			return nil
		}
	}
	return err
}

// poison drops a replica link after terminal ship failure: the leader
// keeps committing with the remaining replicas (degrade-to-a-smaller-
// cluster), and the dropped replica must re-bootstrap to rejoin.
func (s *Shipper) poison(sc *shipConn, cause error) {
	sc.mu.Lock()
	already := sc.err != nil
	if !already {
		sc.err = fmt.Errorf("%w: %v", ErrPoisoned, cause)
	}
	sc.mu.Unlock()
	if already {
		return
	}
	s.m.poisoned.Inc()
	sc.conn.Close()
}

// ReplicaErr returns the poisoning error of the named link, or nil
// while it is healthy (or unknown).
func (s *Shipper) ReplicaErr(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sc := range s.conns {
		if sc.name == name {
			return sc.poisonedErr()
		}
	}
	return nil
}

// Close detaches every link: queued batches are still sent, then the
// connections close.  The caller must have quiesced (or closed) the
// leader first so no flush is mid-hook.
func (s *Shipper) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*shipConn, len(s.conns))
	copy(conns, s.conns)
	s.mu.Unlock()
	for _, sc := range conns {
		if sc.queue != nil {
			close(sc.queue)
			<-sc.done
		}
		sc.conn.Close()
	}
	return nil
}
