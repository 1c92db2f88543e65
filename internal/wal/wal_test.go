package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/value"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{Type: RecBegin, TxID: 1},
		{Type: RecInsert, TxID: 1, Relation: "NOTE", RowID: 7, New: value.Tuple{value.Int(60), value.Str("c4")}},
		{Type: RecUpdate, TxID: 1, Relation: "NOTE", RowID: 7,
			Old: value.Tuple{value.Int(60)}, New: value.Tuple{value.Int(62)}},
		{Type: RecDelete, TxID: 1, Relation: "NOTE", RowID: 7, Old: value.Tuple{value.Int(62)}},
		{Type: RecCommit, TxID: 1},
	}
	var lsns []int64
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	err = Scan(path, func(lsn int64, r *Record) error {
		if lsn != lsns[len(got)] {
			t.Errorf("record %d: lsn %d want %d", len(got), lsn, lsns[len(got)])
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		w := recs[i]
		if r.Type != w.Type || r.TxID != w.TxID || r.Relation != w.Relation || r.RowID != w.RowID {
			t.Errorf("record %d mismatch: %+v vs %+v", i, r, w)
		}
		if (r.New == nil) != (w.New == nil) {
			t.Errorf("record %d tuple presence mismatch", i)
		}
		if r.New != nil && !r.New.Equal(w.New) {
			t.Errorf("record %d new tuple mismatch", i)
		}
		if r.Old != nil {
			t.Errorf("record %d: decoding built the before image %v", i, r.Old)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(&Record{Type: RecBegin, TxID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append garbage.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	count := 0
	if err := Scan(path, func(_ int64, r *Record) error { count++; return nil }); !errors.Is(err, ErrTornTail) {
		t.Fatalf("scan over torn tail: want ErrTornTail, got %v", err)
	}
	if count != 10 {
		t.Fatalf("scan after torn tail: %d records, want 10", count)
	}
	// Replay treats a torn tail as a normal crash artifact.
	if err := Replay(path, func(*Record) error { return nil }); err != nil {
		t.Fatalf("replay over torn tail: %v", err)
	}
	// Reopen truncates the tail and can append again.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(&Record{Type: RecCommit, TxID: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	count = 0
	if err := Scan(path, func(_ int64, r *Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 11 {
		t.Fatalf("after reopen: %d records, want 11", count)
	}
}

func TestCorruptMiddleStopsScan(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	lsn2 := int64(0)
	for i := 0; i < 5; i++ {
		lsn, _ := l.Append(&Record{Type: RecBegin, TxID: uint64(i)})
		if i == 2 {
			lsn2 = lsn
		}
	}
	l.Close()
	// Flip a byte inside record 2's payload.
	data, _ := os.ReadFile(path)
	data[lsn2+9] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	count := 0
	err := Scan(path, func(_ int64, r *Record) error { count++; return nil })
	if count != 2 {
		t.Fatalf("scan past corruption: %d records, want 2", count)
	}
	// Interior damage (valid frames continue past the bad one) is not a
	// crash artifact: scanning reports ErrCorrupt, replay refuses, and
	// reopening refuses rather than silently truncating three records.
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan over interior corruption: want ErrCorrupt, got %v", err)
	}
	if err := Replay(path, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over interior corruption: want ErrCorrupt, got %v", err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over interior corruption: want ErrCorrupt, got %v", err)
	}
}

// TestTornFinalChecksumIsTail pins the boundary case of the taxonomy: a
// complete final frame whose checksum fails is indistinguishable from a
// torn last write, so it classifies as ErrTornTail and reopening
// truncates it away.
func TestTornFinalChecksumIsTail(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	for i := 0; i < 4; i++ {
		l.Append(&Record{Type: RecBegin, TxID: uint64(i)})
	}
	l.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF // damage the last record's payload
	os.WriteFile(path, data, 0o644)
	count := 0
	if err := Scan(path, func(int64, *Record) error { count++; return nil }); !errors.Is(err, ErrTornTail) {
		t.Fatalf("want ErrTornTail, got %v", err)
	}
	if count != 3 {
		t.Fatalf("valid prefix: %d records, want 3", count)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatalf("open should truncate a torn final record: %v", err)
	}
	if _, err := l2.Append(&Record{Type: RecCommit, TxID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	count = 0
	if err := Scan(path, func(int64, *Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("after truncate+append: %d records, want 4", count)
	}
}

func TestReplayOnlyCommitted(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	// Tx 1 commits, tx 2 aborts, tx 3 is left unfinished.
	l.Append(&Record{Type: RecBegin, TxID: 1})
	l.Append(&Record{Type: RecInsert, TxID: 1, Relation: "A", RowID: 1, New: value.Tuple{value.Int(1)}})
	l.Append(&Record{Type: RecBegin, TxID: 2})
	l.Append(&Record{Type: RecInsert, TxID: 2, Relation: "A", RowID: 2, New: value.Tuple{value.Int(2)}})
	l.Append(&Record{Type: RecCommit, TxID: 1})
	l.Append(&Record{Type: RecAbort, TxID: 2})
	l.Append(&Record{Type: RecBegin, TxID: 3})
	l.Append(&Record{Type: RecInsert, TxID: 3, Relation: "A", RowID: 3, New: value.Tuple{value.Int(3)}})
	l.Close()

	var applied []uint64
	err := Replay(path, func(r *Record) error {
		applied = append(applied, r.RowID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0] != 1 {
		t.Fatalf("replay applied %v, want [1]", applied)
	}
}

func TestReplayCommitAfterDataInOrder(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	// Interleaved transactions: replay must preserve log order among
	// committed records.
	l.Append(&Record{Type: RecInsert, TxID: 1, Relation: "A", RowID: 10})
	l.Append(&Record{Type: RecInsert, TxID: 2, Relation: "A", RowID: 20})
	l.Append(&Record{Type: RecInsert, TxID: 1, Relation: "A", RowID: 11})
	l.Append(&Record{Type: RecCommit, TxID: 2})
	l.Append(&Record{Type: RecCommit, TxID: 1})
	l.Close()
	var order []uint64
	Replay(path, func(r *Record) error { order = append(order, r.RowID); return nil })
	want := []uint64{10, 20, 11}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("replay order %v want %v", order, want)
	}
}

func TestReset(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	l.Append(&Record{Type: RecBegin, TxID: 1})
	if l.Size() == 0 {
		t.Fatal("size should grow")
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatal("size after reset")
	}
	l.Append(&Record{Type: RecCheckpoint})
	l.Close()
	count := 0
	Scan(path, func(_ int64, r *Record) error {
		if r.Type != RecCheckpoint {
			t.Errorf("unexpected record %v", r.Type)
		}
		count++
		return nil
	})
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
}

func TestScanMissingFile(t *testing.T) {
	if err := Scan(filepath.Join(t.TempDir(), "nope.wal"), func(int64, *Record) error {
		t.Fatal("callback on missing file")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordTypeString(t *testing.T) {
	names := map[RecordType]string{
		RecBegin: "BEGIN", RecCommit: "COMMIT", RecAbort: "ABORT",
		RecInsert: "INSERT", RecDelete: "DELETE", RecUpdate: "UPDATE",
		RecCheckpoint: "CHECKPOINT", RecordType(200): "RecordType(200)",
	}
	for rt, want := range names {
		if got := rt.String(); got != want {
			t.Errorf("%d.String() = %q want %q", rt, got, want)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	l, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := &Record{Type: RecInsert, TxID: 1, Relation: "NOTE", RowID: 1,
		New: value.Tuple{value.Int(60), value.Str("c4"), value.Float(0.5)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendSync(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	l, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := &Record{Type: RecCommit, TxID: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(rec)
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScanCallbackErrorPropagates(t *testing.T) {
	path := tempLog(t)
	l, _ := Open(path)
	for i := 0; i < 3; i++ {
		l.Append(&Record{Type: RecBegin, TxID: uint64(i)})
	}
	l.Close()
	sentinel := fmt.Errorf("stop here")
	err := Scan(path, func(_ int64, r *Record) error {
		if r.TxID == 1 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("callback error: %v", err)
	}
	// Replay propagates apply errors too.
	l2, _ := Open(path)
	l2.Append(&Record{Type: RecInsert, TxID: 0, Relation: "R", RowID: 1})
	l2.Append(&Record{Type: RecCommit, TxID: 0})
	l2.Close()
	err = Replay(path, func(r *Record) error { return sentinel })
	if err != sentinel {
		t.Fatalf("replay error: %v", err)
	}
}

func TestSchemaRecordTypes(t *testing.T) {
	for rt, want := range map[RecordType]string{
		RecCreateRelation: "CREATE_RELATION",
		RecCreateIndex:    "CREATE_INDEX",
		RecDropRelation:   "DROP_RELATION",
		RecDropIndex:      "DROP_INDEX",
	} {
		if rt.String() != want {
			t.Errorf("%d: %q", rt, rt.String())
		}
	}
	// Schema records replay without a commit.
	path := tempLog(t)
	l, _ := Open(path)
	l.Append(&Record{Type: RecCreateRelation, Relation: "R",
		New: value.Tuple{value.Str("v"), value.Int(1), value.Str("")}})
	l.Append(&Record{Type: RecDropIndex, Relation: "R",
		New: value.Tuple{value.Str("ix_r_x")}})
	l.Append(&Record{Type: RecDropRelation, Relation: "R"})
	l.Close()
	var seen []RecordType
	Replay(path, func(r *Record) error { seen = append(seen, r.Type); return nil })
	if len(seen) != 3 || seen[0] != RecCreateRelation || seen[1] != RecDropIndex || seen[2] != RecDropRelation {
		t.Fatalf("schema replay: %v", seen)
	}
}

// TestPoisonAfterSyncFailure pins the fsyncgate rule: after a failed
// fsync the log must refuse further appends and syncs with the sticky
// first error, never silently continuing over unknown kernel page state.
func TestPoisonAfterSyncFailure(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	fs := fault.NewInjector(fault.Disk{}, reg)
	path := filepath.Join(dir, "mdm.wal")
	l, err := OpenFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: RecBegin, TxID: 1}); err != nil {
		t.Fatal(err)
	}
	reg.Arm(fault.Point(fault.OpSync, path), 1, fault.Outcome{})
	serr := l.Sync()
	if !errors.Is(serr, fault.ErrInjected) {
		t.Fatalf("sync: want injected error, got %v", serr)
	}
	if l.Err() == nil {
		t.Fatal("log not poisoned after fsync failure")
	}
	// The fault has disarmed; a healthy log would sync fine now.  A
	// poisoned one must keep failing with the same sticky error.
	if _, err := l.Append(&Record{Type: RecCommit, TxID: 1}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append after poison: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("sync after poison: %v", err)
	}
	if err := l.Reset(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("reset after poison: %v", err)
	}
	if err := l.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("close after poison: %v", err)
	}
	// Reopening rescans the durable prefix and starts healthy.
	l2, err := OpenFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Err() != nil {
		t.Fatal("fresh log should be healthy")
	}
}

// TestPoisonAfterAppendFlushFailure poisons via the buffered-write path:
// a record larger than the buffer forces a flush inside Append.
func TestPoisonAfterAppendFlushFailure(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	fs := fault.NewInjector(fault.Disk{}, reg)
	path := filepath.Join(dir, "mdm.wal")
	l, err := OpenFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg.Arm(fault.Point(fault.OpWrite, path), 1, fault.Outcome{Partial: 0.5})
	big := &Record{Type: RecInsert, TxID: 1, Relation: "R", New: value.Tuple{value.Str(strings.Repeat("x", 128<<10))}}
	if _, err := l.Append(big); err == nil {
		t.Fatal("append over failing write should error")
	}
	if l.Err() == nil {
		t.Fatal("log not poisoned after torn append")
	}
}

// TestDecodeSkipsOldImage: decoding validates an update's before image
// without building it, so a three-column update record costs the
// record, its relation name and the after image's row and tuple (it
// cost six with the before image built), and a damaged before image is
// still an error.
func TestDecodeSkipsOldImage(t *testing.T) {
	old := value.Tuple{value.Int(60), value.Str("c4"), value.Int(480)}
	rec := &Record{Type: RecUpdate, TxID: 9, Relation: "NOTE", RowID: 7,
		Old: old, New: value.Tuple{value.Int(62), value.Str("d4"), value.Int(480)}}
	buf := rec.encode(nil)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := decodeRecord(buf); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Errorf("decoding an update record: %v allocations, want at most 4", got)
	}
	r, err := decodeRecord(buf)
	if err != nil || r.Old != nil || !r.New.Equal(rec.New) {
		t.Fatalf("decoded %+v, %v", r, err)
	}
	at := bytes.Index(buf, value.AppendTuple(nil, old))
	if at < 0 {
		t.Fatal("before image not found in the record")
	}
	bad := bytes.Clone(buf)
	bad[at+1] = 0xEE // the first column's kind tag
	if _, err := decodeRecord(bad); err == nil {
		t.Error("a before image with an unknown kind tag decoded")
	}
	if _, err := decodeRecord(buf[:at+3]); err == nil {
		t.Error("a record cut inside its before image decoded")
	}
}
