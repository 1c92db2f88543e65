package mdm

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/repl"
	"repro/internal/value"
)

// TestClusterReadRouting stands up a leader with two read replicas in
// SyncShip mode (a commit returns only after every live replica
// applied it), checks that retrieve/explain statements are served by
// the replicas, that writes land on the leader and become visible on
// replica reads immediately, and that a cluster with no usable replica
// falls back to the leader.
func TestClusterReadRouting(t *testing.T) {
	base := t.TempDir()
	leader, err := Open(Options{
		Dir:         filepath.Join(base, "leader"),
		SyncCommits: true,
		GroupCommit: true,
		SkipCMN:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ls := leader.NewSession()
	if _, err := ls.ExecContext(context.Background(), `define entity COMPOSITION (title = string, year = integer)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ls.ExecContext(context.Background(), `append to COMPOSITION (title = "pre", year = 1700)`); err != nil {
			t.Fatal(err)
		}
	}

	c, err := NewCluster(leader, repl.Options{SyncShip: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// No replica yet: reads fall back to the leader.
	out, err := c.Exec("range of c is COMPOSITION\nretrieve (c.title) where c.year = 1700")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out, "pre"); got != 5 {
		t.Fatalf("leader-fallback read saw %d rows, want 5", got)
	}

	r1, err := c.AddReplica("r1", filepath.Join(base, "r1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddReplica("r2", filepath.Join(base, "r2")); err != nil {
		t.Fatal(err)
	}
	if len(c.Replicas()) != 2 {
		t.Fatalf("replicas = %d, want 2", len(c.Replicas()))
	}

	// Writes route to the leader; SyncShip makes them visible on the
	// replicas the moment Exec returns.
	if _, err := c.Exec(`append to COMPOSITION (title = "post", year = 1800)`); err != nil {
		t.Fatal(err)
	}
	res, err := r1.NewSession().QueryContext(context.Background(), "range of c is COMPOSITION\nretrieve (c.title, c.year)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("replica sees %d rows, want 6", len(res.Rows))
	}

	// Routed reads hit a replica and agree with the leader.
	for i := 0; i < 4; i++ { // round-robin across both replicas
		out, err := c.Exec("range of c is COMPOSITION\nretrieve (c.title) where c.year = 1800")
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(out, "post"); got != 1 {
			t.Fatalf("routed read %d saw %d rows, want 1", i, got)
		}
	}
	if c.readTarget() == nil {
		t.Fatal("healthy caught-up replicas must admit reads")
	}

	// explain is read-only and must be servable by a replica session.
	if _, err := r1.NewSession().ExecContext(context.Background(), "range of c is COMPOSITION\nexplain retrieve (c.title)"); err != nil {
		t.Fatalf("explain on replica: %v", err)
	}

	// Write statements must not be routed to replicas.
	if readOnlyStatement(`append to COMPOSITION (title = "x", year = 1)`) {
		t.Fatal("append misclassified as read-only")
	}
	if !readOnlyStatement("  retrieve (c.title)") || !readOnlyStatement("EXPLAIN (c.title)") {
		t.Fatal("retrieve/explain misclassified")
	}
}

// TestReplicaTypedReadsSeeShippedWrites: the replica's typed model reads
// come from its storage, so they see what the leader ships after the
// replica opened — children placed and entities created on the leader.
func TestReplicaTypedReadsSeeShippedWrites(t *testing.T) {
	base := t.TempDir()
	leader, err := Open(Options{Dir: filepath.Join(base, "leader"), SyncCommits: true, GroupCommit: true, SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ls := leader.NewSession()
	for _, src := range []string{"define entity CHORD (name = integer)", "define entity NOTE (name = integer)",
		"define ordering note_in_chord (NOTE) under CHORD"} {
		if _, err := ls.ExecContext(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	lm := leader.Model
	chord, err := lm.NewEntity("CHORD", nil)
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := lm.NewEntity("NOTE", nil)
	if err := lm.InsertChild("note_in_chord", chord, n1, model.Last()); err != nil {
		t.Fatal(err)
	}

	c, err := NewCluster(leader, repl.Options{SyncShip: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rr, err := c.AddReplica("r1", filepath.Join(base, "r1"))
	if err != nil {
		t.Fatal(err)
	}

	n2, err := lm.NewEntity("NOTE", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.InsertChild("note_in_chord", chord, n2, model.Last()); err != nil {
		t.Fatal(err)
	}
	want, err := lm.Children("note_in_chord", chord)
	if err != nil || len(want) != 2 {
		t.Fatalf("leader children = %v (%v)", want, err)
	}
	rm := rr.mdm.Model
	got, err := rm.Children("note_in_chord", chord)
	if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica children = %v (%v), leader %v", got, err, want)
	}
	if !rm.Exists(n2) || !rm.Is(n2, "NOTE") {
		t.Fatal("replica does not see the shipped entity")
	}
	if p, ok := rm.ParentOf("note_in_chord", n2); !ok || p != chord {
		t.Fatalf("replica ParentOf = %v %v", p, ok)
	}
}

// TestReplicaTypedReadsAtomicWithApply races typed reads on a replica
// against shipped ordering writes.  The leader moves one note between
// the ends of its chord (an edge delete and re-insert in one commit) and
// inserts notes mid-chord (renumbering the chord when a rank gap runs
// out).  A replica read that saw half of a shipped transaction would
// find the moved note without a parent, or fewer children than an
// earlier read.
func TestReplicaTypedReadsAtomicWithApply(t *testing.T) {
	const moves = 600
	base := t.TempDir()
	leader, err := Open(Options{Dir: filepath.Join(base, "leader"), SyncCommits: true, GroupCommit: true, SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ls := leader.NewSession()
	for _, src := range []string{"define entity CHORD (name = integer)", "define entity NOTE (name = integer)",
		"define ordering note_in_chord (NOTE) under CHORD"} {
		if _, err := ls.ExecContext(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	lm := leader.Model
	chord, err := lm.NewEntity("CHORD", nil)
	if err != nil {
		t.Fatal(err)
	}
	addNote := func(pos model.Position) value.Ref {
		n, err := lm.NewEntity("NOTE", nil)
		if err == nil {
			err = lm.InsertChild("note_in_chord", chord, n, pos)
		}
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	moved := addNote(model.Last())
	for i := 0; i < 4; i++ {
		addNote(model.Last())
	}
	c, err := NewCluster(leader, repl.Options{SyncShip: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rr, err := c.AddReplica("r1", filepath.Join(base, "r1"))
	if err != nil {
		t.Fatal(err)
	}
	rm := rr.mdm.Model

	var done atomic.Bool
	defer done.Store(true) // stops the reader if the writer fails
	readErr := make(chan error, 1)
	go func() {
		readErr <- func() error {
			last := 0
			for reads := 0; !done.Load() || reads == 0; reads++ {
				if p, ok := rm.ParentOf("note_in_chord", moved); !ok || p != chord {
					return fmt.Errorf("read %d: moved note has parent %v, %v", reads, p, ok)
				}
				kids, err := rm.Children("note_in_chord", chord)
				if err != nil {
					return err
				}
				if len(kids) < last {
					return fmt.Errorf("read %d: %d children after %d", reads, len(kids), last)
				}
				last = len(kids)
				if _, err := rm.ChildAt("note_in_chord", chord, last-1); err != nil {
					return fmt.Errorf("read %d: %w", reads, err)
				}
			}
			return nil
		}()
	}()
	for i := 0; i < moves; i++ {
		pos := model.First()
		if i%2 == 1 {
			pos = model.Last()
		}
		if err := lm.MoveChild("note_in_chord", moved, pos); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			addNote(model.At(2))
		}
	}
	done.Store(true)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
}
