package mdm

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/quel"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// openObsMDM opens a durable manager so WAL metrics are live.
func openObsMDM(t *testing.T) *MDM {
	t.Helper()
	m, err := Open(Options{Dir: t.TempDir(), SyncCommits: true, SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func metricValue(t *testing.T, m *MDM, name string) (val, count uint64) {
	t.Helper()
	mt, ok := m.Obs().Get(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return mt.Value, mt.Count
}

// TestWorkloadMetrics runs a known workload and asserts the layers'
// counters and histograms moved as expected.
func TestWorkloadMetrics(t *testing.T) {
	m := openObsMDM(t)
	s := m.NewSession()
	ctx := context.Background()
	mustCtx := func(src string) {
		t.Helper()
		if _, err := s.ExecContext(ctx, src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	mustCtx(`define entity work (title = string, year = int)`)
	for i := 0; i < 4; i++ {
		mustCtx(`append to work (title = "t", year = 1900)`)
	}
	mustCtx(`retrieve (work.title) where work.year = 1900`)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if v, _ := metricValue(t, m, "mdm.statements"); v != 6 {
		t.Errorf("mdm.statements = %d, want 6", v)
	}
	if _, c := metricValue(t, m, "wal.fsync.ns"); c == 0 {
		t.Error("wal.fsync.ns histogram empty despite SyncCommits")
	}
	if v, _ := metricValue(t, m, "wal.append.records"); v == 0 {
		t.Error("wal.append.records = 0")
	}
	if v, _ := metricValue(t, m, "storage.txn.commit"); v == 0 {
		t.Error("storage.txn.commit = 0")
	}
	if v, _ := metricValue(t, m, "storage.rows.written"); v < 4 {
		t.Errorf("storage.rows.written = %d, want >= 4", v)
	}
	if _, c := metricValue(t, m, "storage.checkpoint.ns"); c == 0 {
		t.Error("storage.checkpoint.ns histogram empty after Checkpoint")
	}
	if _, c := metricValue(t, m, "quel.stmt.ns"); c < 5 {
		t.Error("quel.stmt.ns histogram did not record statements")
	}
	if v, _ := metricValue(t, m, "quel.scan.rows"); v == 0 {
		t.Error("quel.scan.rows = 0 after retrieve")
	}
	if v, _ := metricValue(t, m, "txn.lock.acquire"); v == 0 {
		t.Error("txn.lock.acquire = 0")
	}
	// The whole-stack snapshot document must pass the structural check
	// downstream consumers rely on (complete, coherent metric families).
	if err := obs.ValidateDoc(m.Obs().Doc()); err != nil {
		t.Errorf("ValidateDoc on a live workload's registry: %v", err)
	}
}

// TestTraceCapturesEngineEvents proves the ring sees WAL and statement
// events once enabled, and nothing while disabled.
func TestTraceCapturesEngineEvents(t *testing.T) {
	m := openObsMDM(t)
	s := m.NewSession()
	tr := m.Obs().Trace()
	if _, err := s.ExecContext(context.Background(), `define entity w (a = int)`); err != nil {
		t.Fatal(err)
	}
	if got := tr.LastSeq(); got != 0 {
		t.Fatalf("events recorded while disabled: seq=%d", got)
	}
	tr.SetEnabled(true)
	if _, err := s.ExecContext(context.Background(), `append to w (a = 1)`); err != nil {
		t.Fatal(err)
	}
	tr.SetEnabled(false)
	names := map[string]bool{}
	for _, e := range tr.Events(0) {
		names[e.Name] = true
	}
	for _, want := range []string{"quel.stmt", "wal.fsync"} {
		if !names[want] {
			t.Errorf("trace missing %q events (got %v)", want, names)
		}
	}
}

// TestCancellationAbortsLockWait is the acceptance check: a statement
// blocked on a lock held by another transaction returns ErrCanceled
// promptly (< 100ms) when its context is canceled.
func TestCancellationAbortsLockWait(t *testing.T) {
	m := openObsMDM(t)
	s := m.NewSession()
	if _, err := s.ExecContext(context.Background(), `define entity work (title = string)`); err != nil {
		t.Fatal(err)
	}

	// Holder: a raw storage transaction keeps a shared lock on the
	// work relation, so the session's append (exclusive) must wait.
	holder := m.Store.Begin()
	rel := m.Model.InstanceRelation("work")
	if err := holder.Scan(rel, nil, func(_ storage.RowID, _ value.Row) bool { return false }); err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.ExecContext(ctx, `append to work (title = "blocked")`)
		errCh <- err
	}()

	// Let the statement reach the lock wait, then cancel and time the
	// return.
	time.Sleep(30 * time.Millisecond)
	select {
	case err := <-errCh:
		t.Fatalf("statement finished before cancel: %v", err)
	default:
	}
	canceledAt := time.Now()
	cancel()
	select {
	case err := <-errCh:
		if gone := time.Since(canceledAt); gone > 100*time.Millisecond {
			t.Errorf("cancellation took %v, want < 100ms", gone)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err chain lost context.Canceled: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled statement never returned")
	}

	if v, _ := metricValue(t, m, "txn.lock.canceled"); v == 0 {
		t.Error("txn.lock.canceled = 0")
	}
	if _, c := metricValue(t, m, "txn.lock.wait.ns"); c == 0 {
		t.Error("txn.lock.wait.ns histogram empty after a blocked wait")
	}
	if v, _ := metricValue(t, m, "mdm.canceled"); v != 1 {
		t.Errorf("mdm.canceled = %d, want 1", v)
	}

	// The lock is still held by the raw transaction; a fresh context
	// succeeds once it is released.
	holder.Abort()
	if _, err := s.ExecContext(context.Background(), `append to work (title = "after")`); err != nil {
		t.Fatalf("append after release: %v", err)
	}
}

// TestPreCanceledContext: a context canceled before execution fails
// fast without touching the engine.
func TestPreCanceledContext(t *testing.T) {
	m := openObsMDM(t)
	s := m.NewSession()
	if _, err := s.ExecContext(context.Background(), `define entity w (a = int)`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExecContext(ctx, `append to w (a = 1)`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestErrorClassification covers the typed sentinels of errors.go.
func TestErrorClassification(t *testing.T) {
	m := openObsMDM(t)
	s := m.NewSession()
	ctx := context.Background()

	_, err := s.ExecContext(ctx, `retrieve n.name`)
	if !errors.Is(err, ErrParse) {
		t.Errorf("quel syntax: err = %v, want ErrParse", err)
	}
	if !errors.Is(err, quel.ErrParse) {
		t.Errorf("quel syntax: chain lost quel.ErrParse: %v", err)
	}

	_, err = s.ExecContext(ctx, `define entity`)
	if !errors.Is(err, ErrParse) || !errors.Is(err, quel.ErrParse) {
		t.Errorf("ddl syntax: err = %v, want ErrParse wrapping quel.ErrParse", err)
	}

	_, err = s.ExecContext(ctx, `append to nosuch (a = 1)`)
	if !errors.Is(err, ErrUnknownEntity) {
		t.Errorf("unknown entity: err = %v, want ErrUnknownEntity", err)
	}
	if !errors.Is(err, model.ErrNoEntityType) {
		t.Errorf("unknown entity: chain lost model.ErrNoEntityType: %v", err)
	}

	// Cancellation sentinels interoperate with the txn layer's.
	ctx2, cancel := context.WithCancel(ctx)
	cancel()
	_, err = s.ExecContext(ctx2, `append to nosuch (a = 1)`)
	if !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrUnknownEntity) {
		t.Errorf("err = %v, want a classified sentinel", err)
	}
	if !errors.Is(classify(txn.ErrCanceled), ErrCanceled) {
		t.Error("classify(txn.ErrCanceled) not ErrCanceled")
	}
}

// TestExecResultShape: ExecContext distinguishes DDL from QUEL and
// carries the structured result.
func TestExecResultShape(t *testing.T) {
	m := openObsMDM(t)
	s := m.NewSession()
	ctx := context.Background()
	res, err := s.ExecContext(ctx, `define entity w (a = int)`)
	if err != nil || !res.DDL || res.Result != nil {
		t.Fatalf("ddl result = %+v, %v", res, err)
	}
	res, err = s.ExecContext(ctx, `append to w (a = 1)`)
	if err != nil || res.DDL || res.Result == nil || res.Result.Affected != 1 {
		t.Fatalf("append result = %+v, %v", res, err)
	}
}
