// Planner statistics: per-index equi-depth histograms and distinct
// counts, maintained lazily against a per-relation modification counter
// and rebuilt wholesale at checkpoint.  The query planner reads them to
// estimate join selectivities (1/max(distinct) for an equi-join).
package storage

import "bytes"

const (
	// histBuckets is the equi-depth histogram resolution: up to
	// histBuckets-1 interior boundary keys per index.
	histBuckets = 32
	// statsMinStale is the minimum number of row mutations before a
	// rebuilt statistic is considered stale; larger relations tolerate
	// proportionally more drift (rows/5) before a lazy rebuild.
	statsMinStale = 256
)

// IndexStats is a point-in-time statistical summary of one secondary
// index.  Boundaries holds up to histBuckets-1 strictly increasing
// encoded keys splitting the index into equal-count runs (equi-depth);
// callers must not modify the slices.
type IndexStats struct {
	Rows       int      // index entries at build time
	Distinct   int      // distinct key values (row-id suffix excluded)
	Boundaries [][]byte // equi-depth bucket boundaries, full encoded keys
	Unique     bool     // spec.Unique: Distinct == Rows by construction
}

// staleAfter returns how many mutations a relation of n rows may absorb
// before its index statistics must be rebuilt.
func staleAfter(n int) uint64 {
	s := uint64(n / 5)
	if s < statsMinStale {
		s = statsMinStale
	}
	return s
}

// Stats returns statistics for the named index, lazily rebuilding them
// when the relation has churned past the staleness threshold since the
// last build.  It reports false if the index does not exist.
func (r *Relation) Stats(indexName string) (IndexStats, bool) {
	r.mu.RLock()
	ix := r.findIndex(indexName)
	if ix == nil {
		r.mu.RUnlock()
		return IndexStats{}, false
	}
	if ix.stats != nil && r.modCount-ix.statsAt <= staleAfter(r.live) {
		st := *ix.stats
		r.mu.RUnlock()
		return st, true
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	ix = r.findIndex(indexName) // may have been dropped while unlocked
	if ix == nil {
		return IndexStats{}, false
	}
	if ix.stats == nil || r.modCount-ix.statsAt > staleAfter(r.live) {
		r.rebuildStatsLocked(ix)
	}
	return *ix.stats, true
}

// RebuildStats recomputes statistics for every index of the relation.
// DB.Checkpoint calls this while writers are quiesced so the stats start
// each checkpoint interval fresh.
func (r *Relation) RebuildStats() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ix := range r.indexes {
		r.rebuildStatsLocked(ix)
	}
}

// rebuildStatsLocked recomputes one index's statistics under r.mu: one
// ordered pass for the distinct count (non-unique keys carry an 8-byte
// row-id suffix that is stripped before comparing) plus O(buckets log n)
// rank lookups for the equi-depth boundaries.
func (r *Relation) rebuildStatsLocked(ix *index) {
	st := &IndexStats{Rows: ix.tree.Len(), Unique: ix.spec.Unique}
	if ix.spec.Unique {
		st.Distinct = st.Rows
	} else {
		var prev []byte
		have := false
		ix.tree.Ascend(nil, nil, func(k []byte, _ uint64) bool {
			p := k
			if len(p) >= 8 {
				p = p[:len(p)-8]
			}
			if !have || !bytes.Equal(p, prev) {
				st.Distinct++
				prev = append(prev[:0], p...)
				have = true
			}
			return true
		})
	}
	st.Boundaries = ix.tree.SplitRange(nil, nil, histBuckets)
	ix.stats = st
	ix.statsAt = r.modCount
	if r.statsRebuilds != nil {
		r.statsRebuilds.Inc()
	}
}

// removeIndex detaches and returns the named index, or nil.  The caller
// (DB.DropIndex) logs the drop and reattaches on log failure.
func (r *Relation) removeIndex(name string) *index {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, ix := range r.indexes {
		if ix.spec.Name == name {
			r.indexes = append(r.indexes[:i], r.indexes[i+1:]...)
			return ix
		}
	}
	return nil
}

// restoreIndex reattaches an index detached by removeIndex.  Only valid
// when no row mutations happened in between (the drop-log failure path,
// where the database is already degrading to read-only).
func (r *Relation) restoreIndex(ix *index) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.indexes = append(r.indexes, ix)
}
