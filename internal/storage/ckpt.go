package storage

import (
	"bufio"
	"context"
	"path/filepath"
	"sort"
	"time"
)

// Fuzzy incremental checkpoints.
//
// A checkpoint that quiesces every writer and rewrites the whole
// database image stalls for a time that grows with database size.  The
// checkpoint here avoids both costs:
//
//   - incremental: a CSN-stamped dirty set (db.dirty) records, per
//     relation, the highest commit CSN since its segment was last
//     written.  A checkpoint rewrites only relations whose stamp
//     exceeds their installed segment's covered CSN and reuses every
//     other segment file untouched.
//
//   - fuzzy: the copy phase pins a snapshot CSN and scans each dirty
//     relation through the MVCC version store (snapScan), concurrently
//     with writers.  The writer-visible exclusive window shrinks to a
//     catch-up rewrite of relations dirtied during the copy phase, the
//     manifest swap, and the log reset.
//
// Dirty stamps are taken inside the publish callback (mvcc.go), which
// the snapshot registry runs before advancing its CSN clock: once the
// fuzzy phase has pinned CSN C, every commit at or below C has already
// stamped, so comparing stamps against a segment's covered CSN can
// never miss a write the segment lacks.  Mutations that bypass the CSN
// clock — schema operations, crash-recovery replay, replica apply —
// stamp dirtyDDL, which forces a rewrite unconditionally.
//
// Stamps are consumed with a compare-and-delete: the install remembers
// the stamp it observed when deciding to rewrite and clears the entry
// only if it is unchanged, so a commit racing the decision keeps the
// relation dirty for the next checkpoint.

// ckptPlan accumulates one checkpoint's decisions: the candidate
// manifest (the installed entries, overwritten as segments are
// rewritten), the dirty stamps consumed per rewrite, and accounting.
type ckptPlan struct {
	entries  map[string]manifestEntry
	consumed map[string]uint64
	fresh    map[string]bool // rewritten this checkpoint
	bytes    int64
	attach   func(checkpointPath string) error
	seg      *bufio.Writer // the segment files' buffer, allocated at the first rewrite
}

// newCkptPlan starts a plan from the installed manifest.  Caller holds
// db.ckptMu (or db.applyMu on a replica), which also guards
// db.manifest.
func (db *DB) newCkptPlan(attach func(string) error) *ckptPlan {
	p := &ckptPlan{
		entries:  make(map[string]manifestEntry, len(db.manifest)),
		consumed: make(map[string]uint64),
		fresh:    make(map[string]bool),
		attach:   attach,
	}
	for n, e := range db.manifest {
		p.entries[n] = e
	}
	return p
}

// markDirty raises the relation's dirty stamp to csn.
func (db *DB) markDirty(name string, csn uint64) {
	if name == "" {
		return
	}
	db.dirtyMu.Lock()
	if db.dirty[name] < csn {
		db.dirty[name] = csn
	}
	db.dirtyMu.Unlock()
}

// dirtyStamp returns the relation's dirty stamp (0 when clean).
func (db *DB) dirtyStamp(name string) uint64 {
	db.dirtyMu.Lock()
	defer db.dirtyMu.Unlock()
	return db.dirty[name]
}

// planWrite rewrites one relation's segment at CSN at and records the
// decision in the plan.  The dirty stamp is read before the write: if a
// commit bumps it while the segment streams out, the stale consumed
// value makes the compare-and-delete keep the entry, and the relation
// is rewritten again (catch-up, or the next checkpoint).
func (db *DB) planWrite(p *ckptPlan, rel *Relation, at uint64) error {
	stamp := db.dirtyStamp(rel.name)
	if p.seg == nil {
		p.seg = bufio.NewWriterSize(nil, 1<<20)
	}
	e, err := db.writeSegmentFile(p.seg, rel, at)
	if err != nil {
		return err
	}
	p.entries[rel.name] = e
	p.consumed[rel.name] = stamp
	p.fresh[rel.name] = true
	p.bytes += e.bytes
	if db.logic != nil {
		// Failpoint seam between segment writes: a crash here leaves
		// renamed-but-unreferenced segments that full log replay covers.
		if err := db.logic("ckpt.segment"); err != nil {
			return err
		}
	}
	return nil
}

// fuzzyCheckpointWith is the leader checkpoint: fuzzy copy phase, then
// a short exclusive install.  Caller holds db.ckptMu.
func (db *DB) fuzzyCheckpointWith(attach func(string) error) error {
	p := db.newCkptPlan(attach)
	if db.committer == nil {
		// No commit pipeline (NoWAL with a directory, the bulk loader's
		// mode): quiesce writers and install directly.
		err := func() error {
			release, err := db.quiesce()
			if err != nil {
				return err
			}
			defer release()
			if err := db.writable(); err != nil {
				return err
			}
			stallStart := time.Now()
			defer func() { db.m.ckptStall.Observe(int64(time.Since(stallStart))) }()
			return db.installCheckpoint(p)
		}()
		if err != nil {
			return err
		}
		db.rebuildAllStats()
		return nil
	}

	// Fuzzy phase: pin a CSN and rewrite every dirty relation through the
	// MVCC snapshot machinery while writers keep committing.
	fuzzyStart := time.Now()
	snap, err := db.BeginSnapshot(context.Background())
	if err != nil {
		return err
	}
	at := snap.CSN()
	names := db.Relations()
	sort.Strings(names)
	for _, name := range names {
		rel := db.Relation(name)
		if rel == nil {
			continue // dropped since listing
		}
		if e, ok := p.entries[name]; ok && db.dirtyStamp(name) <= e.covered {
			continue // clean: the installed segment already covers it
		}
		// Planner statistics rebuild rides the fuzzy phase — outside any
		// quiesce or exclusive window — so stats maintenance no longer
		// extends the writer stall, and the segment carries fresh stats.
		rel.RebuildStats()
		if err := db.planWrite(p, rel, at); err != nil {
			snap.Close()
			return err
		}
	}
	snap.Close()
	db.m.ckptFuzzy.Observe(int64(time.Since(fuzzyStart)))

	// Drain the commit queue (and fsync) so every acknowledged commit is
	// on disk in the log the manifest supersedes.
	if err := db.Sync(); err != nil {
		return err
	}
	stallStart := time.Now()
	defer func() { db.m.ckptStall.Observe(int64(time.Since(stallStart))) }()
	return db.committer.Exclusive(func() error {
		if err := db.writable(); err != nil {
			return err
		}
		return db.installCheckpoint(p)
	})
}

// installCheckpoint finishes a checkpoint: catch-up rewrites for
// relations dirtied since the fuzzy copy (at the now-quiescent latest
// CSN), durable segment renames, manifest swap, log reset, then
// bookkeeping.  The caller guarantees no commit can publish
// concurrently: leaders run it inside committer.Exclusive, replicas
// under applyMu, unlogged databases under a full quiesce.
//
// Failure semantics: any error before the log reset leaves the previous
// manifest plus the complete log — the checkpoint simply did not
// happen.  A failed reset, or a failed directory sync after it,
// degrades the database: the durable log state is then unknown.
func (db *DB) installCheckpoint(p *ckptPlan) error {
	w := db.snaps.Last()
	names := db.Relations()
	sort.Strings(names)
	entries := make([]manifestEntry, 0, len(names))
	var written, skipped int
	for _, name := range names {
		rel := db.Relation(name)
		if rel == nil {
			continue
		}
		if e, ok := p.entries[name]; !ok || db.dirtyStamp(name) > e.covered {
			if err := db.planWrite(p, rel, w); err != nil {
				return err
			}
		}
		entries = append(entries, p.entries[name])
		if p.fresh[name] {
			written++
		} else {
			skipped++
		}
	}
	// Make the segment renames durable before any manifest references
	// them: a manifest must never name a segment file that a crash can
	// un-rename out of existence.
	if err := db.fs.SyncDir(db.opts.Dir); err != nil {
		return err
	}
	if db.logic != nil {
		if err := db.logic("ckpt.pre-manifest"); err != nil {
			return err
		}
	}
	epoch := db.manifestEpoch + 1
	mbytes, err := db.writeManifestFile(entries, epoch)
	if err != nil {
		return err
	}
	p.bytes += mbytes
	if err := db.fs.SyncDir(db.opts.Dir); err != nil {
		return err
	}
	if db.logic != nil {
		// The manifest rename is durable; the log is not yet reset.  A
		// crash here replays the full log over the new image — idempotent.
		if err := db.logic("ckpt.post-manifest"); err != nil {
			return err
		}
	}
	if db.log != nil {
		if err := db.log.Reset(); err != nil {
			db.degrade(err)
			return err
		}
		if err := db.fs.SyncDir(db.opts.Dir); err != nil {
			db.degrade(err)
			return err
		}
	}

	// The checkpoint is installed; everything below is bookkeeping.
	newManifest := make(map[string]manifestEntry, len(entries))
	for _, e := range entries {
		newManifest[e.name] = e
	}
	var doomed []string
	for name, e := range db.manifest {
		if _, live := newManifest[name]; !live {
			doomed = append(doomed, e.file) // dropped relation: segment is garbage
		}
	}
	db.manifest = newManifest
	db.manifestEpoch = epoch
	db.dirtyMu.Lock()
	for name, stamp := range p.consumed {
		if db.dirty[name] == stamp {
			delete(db.dirty, name)
		}
	}
	db.dirtyMu.Unlock()
	db.m.ckptRelations.Add(uint64(written + skipped))
	db.m.ckptSegsWritten.Add(uint64(written))
	db.m.ckptSegsSkipped.Add(uint64(skipped))
	db.m.ckptBytes.Add(uint64(p.bytes))
	// Best-effort housekeeping: segments of dropped relations.  Failures
	// leave stale files that recovery ignores (the manifest is
	// authoritative) and the next checkpoint retries the GC.
	for _, f := range doomed {
		db.fs.Remove(filepath.Join(db.opts.Dir, f)) //nolint:errcheck // best-effort GC
	}
	if p.attach != nil {
		return p.attach(db.manifestPath())
	}
	return nil
}

// rebuildAllStats refreshes planner statistics for every relation, from
// outside any quiesce or exclusive window.
func (db *DB) rebuildAllStats() {
	for _, name := range db.Relations() {
		if rel := db.Relation(name); rel != nil {
			rel.RebuildStats()
		}
	}
}
