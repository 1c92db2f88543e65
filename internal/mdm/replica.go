// Read-replica clustering for the music data manager.  The paper's
// workload (§1-2) is read-dominated — browsing scores, thematic-index
// lookups, analysis passes — so the manager scales reads by shipping
// the leader's WAL to replicas (internal/repl) and routing read-only
// QUEL sources to whichever replica is within its lag bound.
package mdm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/quel"
	"repro/internal/repl"
	"repro/internal/storage"
)

// Cluster is one leader MDM plus its attached read replicas.  Writes
// (and any source with a statement that is not read-only) always
// execute on the leader; range/retrieve/explain sources round-robin
// across the replicas that are currently within their configured lag
// bound, falling back to the leader when none is.
type Cluster struct {
	Leader *MDM

	shipper *repl.Shipper
	ropts   repl.Options

	mu       sync.Mutex
	replicas []*ReadReplica
	rr       atomic.Uint64
	closed   bool
}

// ReadReplica is one attached replica: the replication link plus an
// entity-relationship model opened over the replica's applied state.
//
// The replica's model is loaded from the catalog as of attach time;
// data changes stream continuously, but entity/relationship TYPES
// defined on the leader after the attach are not visible to the
// replica's sessions until it is re-attached (the usual physical-
// replication catalog-cache caveat).
type ReadReplica struct {
	Name string
	Rep  *repl.Replica

	mdm *MDM
}

// NewCluster wires a shipper onto an open leader.  The leader must be
// durable (Dir + SyncCommits/GroupCommit); opts tunes shipping and the
// replicas' read-admission lag bound.
func NewCluster(leader *MDM, opts repl.Options) (*Cluster, error) {
	s, err := repl.NewShipper(leader.Store, opts)
	if err != nil {
		return nil, err
	}
	return &Cluster{Leader: leader, shipper: s, ropts: opts}, nil
}

// AddReplica bootstraps dir from the leader (checkpoint + image
// copy), opens it in replica mode sharing the leader's metrics
// registry, starts the replication link, and opens the replica's model
// for read sessions.
func (c *Cluster) AddReplica(name, dir string) (*ReadReplica, error) {
	rep, err := repl.AttachReplica(c.shipper, name, storage.Options{
		Dir: dir,
		Obs: c.Leader.Obs(),
	}, c.ropts)
	if err != nil {
		return nil, err
	}
	m, err := model.Open(rep.DB())
	if err != nil {
		rep.Stop()
		rep.DB().Close()
		return nil, fmt.Errorf("mdm: open replica model: %w", err)
	}
	rr := &ReadReplica{
		Name: name,
		Rep:  rep,
		mdm:  &MDM{Store: rep.DB(), Model: m},
	}
	c.mu.Lock()
	c.replicas = append(c.replicas, rr)
	c.mu.Unlock()
	return rr, nil
}

// NewSession opens a read session on this replica.  Statements execute
// against MVCC snapshots of the applied state; write statements fail
// with storage.ErrReplica.
func (r *ReadReplica) NewSession() *Session { return r.mdm.NewSession() }

// Replicas returns the attached replicas.
func (c *Cluster) Replicas() []*ReadReplica {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*ReadReplica, len(c.replicas))
	copy(out, c.replicas)
	return out
}

// readTarget picks the next replica within its lag bound, round-robin,
// or nil when every replica is lagging, poisoned, or absent.
func (c *Cluster) readTarget() *ReadReplica {
	c.mu.Lock()
	reps := c.replicas
	n := len(reps)
	c.mu.Unlock()
	if n == 0 {
		return nil
	}
	start := int(c.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		r := reps[(start+i)%n]
		if r.Rep.Err() == nil && r.Rep.WithinLag() {
			return r
		}
	}
	return nil
}

// ExecContext parses src once and routes it: a source of range,
// retrieve and explain statements alone runs on a caught-up replica
// (leader fallback), any other on the leader.
func (c *Cluster) ExecContext(ctx context.Context, src string) (ExecResult, error) {
	stmts, err := quel.Parse(src)
	if err != nil {
		return ExecResult{}, classify(err)
	}
	if readOnly(stmts) {
		if r := c.readTarget(); r != nil {
			res, err := r.NewSession().run(ctx, stmts)
			// A replica that cannot serve the read (stopped mid-flight,
			// degraded) must not fail the client: retry on the leader.
			if err == nil || !errors.Is(err, storage.ErrReplica) {
				return res, err
			}
		}
	}
	return c.Leader.NewSession().run(ctx, stmts)
}

// readOnly reports whether a replica can serve every statement.
func readOnly(stmts []quel.Stmt) bool {
	for _, st := range stmts {
		if !quel.ReadOnly(st) {
			return false
		}
	}
	return true
}

// Exec is ExecContext with a background context, returning the
// rendered output.
func (c *Cluster) Exec(src string) (string, error) {
	res, err := c.ExecContext(context.Background(), src)
	return res.Text(), err
}

// Close detaches every replica (stopping links and closing replica
// databases) and shuts the shipper down.  The leader stays open — it
// belongs to the caller.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	reps := c.replicas
	c.mu.Unlock()
	err := c.shipper.Close()
	for _, r := range reps {
		r.Rep.Stop()
		if cerr := r.Rep.DB().Close(); cerr != nil && err == nil && !errors.Is(cerr, storage.ErrReadOnly) {
			err = cerr
		}
	}
	return err
}
