package mdm

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/repl"
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
