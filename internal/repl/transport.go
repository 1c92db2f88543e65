package repl

import (
	"fmt"
	"sync"

	"repro/internal/wal"
)

// Batch is one shipped unit: the records one leader fsync made durable,
// in append order, covering whole commit batches only.
type Batch struct {
	// Seq is the shipper-assigned sequence number; acks echo it.
	Seq uint64
	// LeaderCSN is the leader's highest published commit sequence number
	// when the batch was shipped.  Replicas compute CSN lag from it.
	LeaderCSN uint64
	// ShippedAt is the leader's wall clock at ship time (UnixNano);
	// replicas compute wall-clock lag from it.
	ShippedAt int64
	// Records are the durable records, leader log order.
	Records []*wal.Record
}

// Conn is one leader->replica link.  The leader calls Send, which
// blocks until the replica acks durable receipt (the replica has
// appended the batch to its own log, fsynced, and applied it); the
// replica calls Recv and Ack.  Close unblocks both sides.
type Conn interface {
	Send(b *Batch) error
	Recv() (*Batch, error)
	Ack(seq uint64) error
	Close() error
}

// Pipe is the in-process Conn: a pair of channels.  It is the transport
// the single-box cluster and the torture tests run on.
type Pipe struct {
	batches chan *Batch
	acks    chan uint64
	closed  chan struct{}
	once    sync.Once
}

// NewPipe returns an in-process connection with the given queue depth
// (minimum 1).  Depth matters only between AddReplica registering the
// stream and the replica starting to receive; after that Send's
// ack-wait keeps at most one batch in flight.
func NewPipe(depth int) *Pipe {
	if depth < 1 {
		depth = 1
	}
	return &Pipe{
		batches: make(chan *Batch, depth),
		acks:    make(chan uint64, depth),
		closed:  make(chan struct{}),
	}
}

// Send delivers b and waits for the replica's ack of its Seq.
func (p *Pipe) Send(b *Batch) error {
	// Check closed before enqueuing: with both channels ready, select
	// picks at random, and a batch enqueued after Close would be
	// drained by a later Recv instead of ErrClosed.
	select {
	case <-p.closed:
		return ErrClosed
	default:
	}
	select {
	case p.batches <- b:
	case <-p.closed:
		return ErrClosed
	}
	select {
	case seq := <-p.acks:
		if seq != b.Seq {
			return fmt.Errorf("repl: ack %d for batch %d", seq, b.Seq)
		}
		return nil
	case <-p.closed:
		return ErrClosed
	}
}

// Recv returns the next batch.  A closed pipe still drains batches
// already queued before reporting ErrClosed.
func (p *Pipe) Recv() (*Batch, error) {
	select {
	case b := <-p.batches:
		return b, nil
	default:
	}
	select {
	case b := <-p.batches:
		return b, nil
	case <-p.closed:
		return nil, ErrClosed
	}
}

// Ack acknowledges durable receipt of batch seq.
func (p *Pipe) Ack(seq uint64) error {
	select {
	case p.acks <- seq:
		return nil
	case <-p.closed:
		return ErrClosed
	}
}

// Close unblocks both ends.  Idempotent.
func (p *Pipe) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}
