// Interval n-gram index over incipits.
//
// The paper sizes a national thematic catalogue at a million works and
// asks for incipit lookup as a first-class query.  A full scan
// materializes every entry's incipit — hundreds of rows per answer row.
// Instead we keep an inverted index: every GramN-interval window of an
// incipit becomes one INCIPIT_GRAM posting (gram key + entry reference),
// and the gram attribute carries a secondary index.  A query of at
// least GramN intervals probes the most selective of its windows, then
// verifies candidates against the full pattern; shorter queries fall
// back to the scan.  Matching stays on intervals, so the index is
// transposition-invariant like the search it accelerates.
package biblio

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/value"
)

// GramN is the number of intervals per gram.  Three intervals (four
// notes) keeps the posting list per gram short even at catalogue scale
// while letting any query of four or more notes use the index.
const GramN = 3

// GramDDL defines the inverted-index entity.  It is separate from
// SchemaDDL so databases created before the gram index upgrade in
// place on open.
const GramDDL = `
define entity INCIPIT_GRAM (gram = string, entry = CATALOG_ENTRY)
define index on INCIPIT_GRAM (gram)
`

// gramIndexName mirrors the name ddl synthesizes for
// `define index on INCIPIT_GRAM (gram)`.
const gramIndexName = "ix_incipit_gram_gram"

// gramKey encodes an interval window as the indexed key, e.g. "7,-4,-1".
func gramKey(iv []int) string {
	var b strings.Builder
	for i, d := range iv {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(d))
	}
	return b.String()
}

// gramKeys returns the deduplicated gram keys of an interval sequence.
func gramKeys(iv []int) []string {
	if len(iv) < GramN {
		return nil
	}
	seen := make(map[string]bool, len(iv))
	out := make([]string, 0, len(iv)-GramN+1)
	for i := 0; i+GramN <= len(iv); i++ {
		k := gramKey(iv[i : i+GramN])
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// gramRange returns the index key range matching exactly one gram.
func gramRange(gram string) (lo, hi []byte) {
	lo = value.AppendKey(nil, value.Str(gram))
	hi = append(append([]byte(nil), lo...), 0xFF)
	return lo, hi
}

// gramEntities builds the INCIPIT_GRAM batch rows for one entry.  The
// entry is identified by its index in the surrounding BulkInsert batch.
func gramEntities(entryIx int, iv []int) []model.BulkEntity {
	keys := gramKeys(iv)
	if len(keys) == 0 {
		return nil
	}
	out := make([]model.BulkEntity, len(keys))
	for i, k := range keys {
		out[i] = model.BulkEntity{
			Type:     "INCIPIT_GRAM",
			Attrs:    model.Attrs{"gram": value.Str(k)},
			RefAttrs: map[string]int{"entry": entryIx},
		}
	}
	return out
}

// addGrams inserts gram postings for an existing entry (the slow,
// per-entry AddEntry path).
func (ix *Index) addGrams(entry value.Ref, iv []int) error {
	for _, k := range gramKeys(iv) {
		if _, err := ix.db.NewEntity("INCIPIT_GRAM", model.Attrs{
			"gram":  value.Str(k),
			"entry": value.RefVal(entry),
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeGram picks the most selective window of the query by asking the
// gram index's order statistics for each window's posting count.  ok is
// false when the query is too short for the index.
func (ix *Index) probeGram(query []int) (gram string, ok bool) {
	if len(query) < GramN {
		return "", false
	}
	best, bestCount := "", -1
	for i := 0; i+GramN <= len(query); i++ {
		k := gramKey(query[i : i+GramN])
		lo, hi := gramRange(k)
		n := ix.db.InstancesRangeCount("INCIPIT_GRAM", gramIndexName, lo, hi)
		if n < 0 {
			// Index unavailable (e.g. deferred during a bulk load).
			return "", false
		}
		if bestCount < 0 || n < bestCount {
			best, bestCount = k, n
		}
	}
	return best, true
}

// candidates returns the distinct entries posted under a gram, in
// posting (creation) order.
func (ix *Index) candidates(gram string) ([]value.Ref, error) {
	lo, hi := gramRange(gram)
	seen := make(map[value.Ref]bool)
	var out []value.Ref
	err := ix.db.InstancesRange("INCIPIT_GRAM", gramIndexName, lo, hi, false,
		func(_ value.Ref, attrs value.Tuple) bool {
			e := attrs[1].AsRef()
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MatchIncipit reports whether the entry's incipit contains the query
// interval sequence.  It is the authoritative predicate behind both the
// indexed and scanning search paths, and the Match callback of the
// registered incipit index.
func (ix *Index) MatchIncipit(entry value.Ref, query []int) (bool, error) {
	return matchIncipit(ix.db, entry, query)
}

func matchIncipit(r entryReader, entry value.Ref, query []int) (bool, error) {
	e, err := getEntry(r, entry)
	if err != nil {
		return false, err
	}
	return containsRun(intervals(e.Incipit), query), nil
}

// ReindexIncipits rebuilds the gram postings from the incipits on
// record.  It upgrades databases created before the gram index existed,
// and repairs the index after a bulk load that skipped gram
// maintenance.
func (ix *Index) ReindexIncipits() error {
	var entries []value.Ref
	err := ix.db.Instances("CATALOG_ENTRY", func(ref value.Ref, _ value.Tuple) bool {
		entries = append(entries, ref)
		return true
	})
	if err != nil {
		return err
	}
	for _, eref := range entries {
		e, err := ix.Get(eref)
		if err != nil {
			return err
		}
		if err := ix.addGrams(eref, intervals(e.Incipit)); err != nil {
			return err
		}
	}
	return nil
}

// registerIncipitIndex publishes the gram index to the model layer so
// the query planner can turn `retrieve ... where e incipit "..."` into
// an index-backed scan without importing this package.
func (ix *Index) registerIncipitIndex() error {
	return ix.db.RegisterIncipitIndex(model.IncipitIndex{
		EntityType: "CATALOG_ENTRY",
		GramType:   "INCIPIT_GRAM",
		GramAttr:   "gram",
		EntryAttr:  "entry",
		N:          GramN,
		Gram: func(pattern string) (string, bool) {
			pitches, err := ParsePitches(pattern)
			if err != nil {
				return "", false
			}
			return ix.probeGram(pitchIntervals(pitches))
		},
		Match: func(v model.View, entry value.Ref, pattern string) (bool, error) {
			pitches, err := ParsePitches(pattern)
			if err != nil {
				return false, err
			}
			iv := pitchIntervals(pitches)
			if len(iv) == 0 {
				return false, fmt.Errorf("biblio: incipit pattern needs at least two pitches")
			}
			return matchIncipit(v, entry, iv)
		},
	})
}

// pitchIntervals converts a pitch sequence to its interval sequence.
func pitchIntervals(pitches []int) []int {
	if len(pitches) < 2 {
		return nil
	}
	out := make([]int, len(pitches)-1)
	for i := 1; i < len(pitches); i++ {
		out[i-1] = pitches[i] - pitches[i-1]
	}
	return out
}

// ParsePitches parses a pitch pattern literal — MIDI pitch numbers
// separated by spaces or commas, e.g. "67 74 70 69" — as used by the
// QUEL incipit predicate and the mdmload/mdmquery CLIs.
func ParsePitches(s string) ([]int, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
	if len(fields) == 0 {
		return nil, fmt.Errorf("biblio: empty pitch pattern")
	}
	out := make([]int, len(fields))
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("biblio: bad pitch %q: %w", f, err)
		}
		if n < 0 || n > 127 {
			return nil, fmt.Errorf("biblio: pitch %d out of MIDI range", n)
		}
		out[i] = n
	}
	return out, nil
}
