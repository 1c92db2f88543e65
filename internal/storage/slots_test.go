package storage

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/value"
	"repro/internal/wal"
)

// TestSlotHoles: rows deleted (and vacuumed) leave empty slots that the
// locking scan, Snap.Scan, Len, ContentHash and a checkpoint → reopen all
// skip; new rows never reuse them.
func TestSlotHoles(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("NOTE", noteSchema())
	var ids []RowID
	mustTx(t, db, func(tx *Tx) {
		for i := 0; i < 40; i++ {
			id, _ := tx.Insert("NOTE", value.Tuple{value.Int(int64(i)), value.Int(60), value.Str("n")})
			ids = append(ids, id)
		}
	})
	var live []RowID
	mustTx(t, db, func(tx *Tx) {
		for i, id := range ids {
			if i%3 == 0 {
				if err := tx.Delete("NOTE", id); err != nil {
					t.Fatal(err)
				}
			} else {
				live = append(live, id)
			}
		}
	})
	// Unvacuumed: the deleted rows' slots still hold their closed-off
	// versions, and nothing reads them.
	check := func(db *DB, when string) {
		t.Helper()
		snap, locking := scanIDs(t, db, "NOTE")
		if fmt.Sprint(snap) != fmt.Sprint(live) || fmt.Sprint(locking) != fmt.Sprint(live) {
			t.Fatalf("%s: scans %v / %v, want %v", when, snap, locking, live)
		}
		if n := db.Relation("NOTE").Len(); n != len(live) {
			t.Fatalf("%s: Len %d, want %d", when, n, len(live))
		}
	}
	check(db, "before vacuum")
	hash := db.ContentHash()
	db.Vacuum()
	check(db, "after vacuum")
	if h := db.ContentHash(); h != hash {
		t.Fatal("vacuum changed the content hash")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db, "after reopen")
	if h := db.ContentHash(); h != hash {
		t.Fatal("checkpoint → reopen changed the content hash")
	}
	r := db.Relation("NOTE")
	for i, id := range ids {
		if s := r.slotLocked(id); (s.t == nil) != (i%3 == 0) || (s.ver == nil) != (i%3 == 0) {
			t.Fatalf("after reopen: slot %d holds %v / %v", id, s.t, s.ver)
		}
	}
	var fresh RowID
	mustTx(t, db, func(tx *Tx) {
		fresh, _ = tx.Insert("NOTE", value.Tuple{value.Int(99), value.Int(60), value.Str("n")})
	})
	if fresh != ids[len(ids)-1]+1 {
		t.Fatalf("new row took id %d, want %d: ids are never reused", fresh, ids[len(ids)-1]+1)
	}
}

// TestSlotPagesFollowLiveRows: churn that issues fifty times as many
// row ids as it keeps live (inserts, deletes of random live rows, aborted
// inserts, vacuums) leaves allocated only the pages that still hold a
// row, before and after a checkpoint → reopen, and walks skip the rest.
func TestSlotPagesFollowLiveRows(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateRelation("NOTE", noteSchema())
	if err := db.CreateIndex("NOTE", IndexSpec{Name: "by_pitch", Columns: []string{"pitch"}}); err != nil {
		t.Fatal(err)
	}
	const live, rounds, batch = 1000, 500, 100
	rng := rand.New(rand.NewSource(1))
	var ids []RowID
	name := int64(0)
	insert := func(tx *Tx) RowID {
		name++
		id, err := tx.Insert("NOTE", value.Tuple{value.Int(name), value.Int(name % 12), value.Str("n")})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustTx(t, db, func(tx *Tx) {
		for range live {
			ids = append(ids, insert(tx))
		}
	})
	for range rounds {
		mustTx(t, db, func(tx *Tx) {
			for range batch {
				k := rng.Intn(len(ids))
				if err := tx.Delete("NOTE", ids[k]); err != nil {
					t.Fatal(err)
				}
				ids[k] = insert(tx)
			}
		})
		tx := db.Begin()
		insert(tx)
		tx.Abort()
		db.Vacuum()
	}
	r := db.Relation("NOTE")
	// Random deletes leave a geometric tail of survivors: about
	// H(256) ≈ 6 live rows' worth of pages per page of live rows.
	bound := 10*live/pageSize + 1
	check := func(when string) {
		t.Helper()
		r.mu.RLock()
		pages, used := 0, 0
		for _, p := range r.pages {
			if p.slots != nil {
				pages++
				used += p.used
			}
		}
		issued := int(r.nextRow)
		r.mu.RUnlock()
		if pages > bound || used != live {
			t.Fatalf("%s: %d pages holding %d slots for %d live rows (%d ids issued), want ≤ %d pages, %d slots",
				when, pages, used, live, issued, bound, live)
		}
		if issued < 40*live {
			t.Fatalf("%s: only %d ids issued", when, issued)
		}
		snap, locking := scanIDs(t, db, "NOTE")
		if len(snap) != live || len(locking) != live || r.Len() != live {
			t.Fatalf("%s: scans %d / %d rows, Len %d, want %d", when, len(snap), len(locking), r.Len(), live)
		}
		if err := r.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
	}
	check("after churn")
	if chains, old, _ := r.VersionStats(); chains != live || old != 0 {
		t.Fatalf("after a quiesced vacuum: %d chains, %d old versions", chains, old)
	}
	hash := db.ContentHash()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r = db.Relation("NOTE")
	check("after reopen")
	if db.ContentHash() != hash {
		t.Fatal("checkpoint → reopen changed the content hash")
	}
}

// TestSlotReplayOutOfOrder: replayed or shipped records whose row ids
// arrive out of order (the log orders commits, not row ids) land in
// their own slots, and scans still run in row-id order.
func TestSlotReplayOutOfOrder(t *testing.T) {
	db := memDB(t)
	db.CreateRelation("NOTE", noteSchema())
	for _, id := range []RowID{7, 2, 12, 5} {
		op, err := db.applyRecord(&wal.Record{Type: wal.RecInsert, Relation: "NOTE", RowID: id,
			New: value.Tuple{value.Int(int64(id)), value.Int(60), value.Str("n")}})
		if err != nil {
			t.Fatal(err)
		}
		db.publish([]verOp{*op})
	}
	snap, locking := scanIDs(t, db, "NOTE")
	if want := "[2 5 7 12]"; fmt.Sprint(snap) != want || fmt.Sprint(locking) != want {
		t.Fatalf("scans %v / %v, want %s", snap, locking, want)
	}
	r := db.Relation("NOTE")
	for _, id := range []RowID{2, 5, 7, 12} {
		if t0, ok := r.get(id); !ok || t0[0].AsInt() != int64(id) {
			t.Fatalf("row %d: %v %v", id, t0, ok)
		}
	}
	mustTx(t, db, func(tx *Tx) {
		if id, _ := tx.Insert("NOTE", value.Tuple{value.Int(13), value.Int(60), value.Str("n")}); id != 13 {
			t.Fatalf("fresh insert took id %d, want 13", id)
		}
	})
}

// TestSegmentFormatUnchanged: testdata/segment_v1 holds a store
// written before the heap became a slot array (NOTE with a unique and a
// non-unique index, holes from deletes, an updated row, stored
// statistics).  It reopens with every row, and rewriting its segment at
// the covered CSN it records yields the same bytes.
func TestSegmentFormatUnchanged(t *testing.T) {
	src := filepath.Join("testdata", "segment_v1")
	dir := t.TempDir()
	for _, f := range []string{ManifestFileName, SegmentFileName("NOTE")} {
		b, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := os.ReadFile(filepath.Join(src, SegmentFileName("NOTE")))
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := db.Relation("NOTE")
	if r.Len() != 257 {
		t.Fatalf("reopened %d rows, want 257", r.Len())
	}
	if err := r.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	body, err := checkFrame(want, segmentMagic, "golden")
	if err != nil {
		t.Fatal(err)
	}
	br := &byteReader{body: body, ctx: "golden"}
	if _, err := br.str(); err != nil {
		t.Fatal(err)
	}
	at, err := br.uvarint()
	if err != nil {
		t.Fatal(err)
	}
	// Twice through one buffer, as a checkpoint writes its segments.
	w := bufio.NewWriterSize(nil, 1<<20)
	for pass := 0; pass < 2; pass++ {
		if _, err := db.writeSegmentFile(w, r, at); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, SegmentFileName("NOTE")))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: rewritten segment differs: %d bytes, want %d", pass, len(got), len(want))
		}
	}
	s, err := db.BeginSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var moved string
	if _, tu, ok, err := s.IndexGet("NOTE", "by_name", value.AppendKey(nil, value.Int(1000))); err != nil || !ok {
		t.Fatalf("updated row: ok=%v err=%v", ok, err)
	} else {
		moved = tu[2].AsString()
	}
	if moved != "moved" {
		t.Fatalf("updated row reads %q", moved)
	}
}
