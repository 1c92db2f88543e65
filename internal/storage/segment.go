package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/value"
)

// Checkpoint image format (see DESIGN.md §10): a checkpoint maintains
// one segment file per relation plus a small manifest that names the
// segment set, the sequences, and the checkpoint epoch.  Segments are
// immutable once installed (they are replaced whole, via tmp+rename),
// so a checkpoint that finds a relation unchanged since its segment was
// written simply keeps the file — the incremental half of fuzzy
// checkpointing.
//
// Manifest ("mdm.manifest"):
//
//	magic "MDMMAN01"
//	uvarint epoch
//	uvarint sequence count, then (name, value) pairs
//	uvarint relation count, then per relation:
//	    name, segment file base name, covered CSN, segment byte size
//	crc32c of everything after the magic
//
// Segment ("mdm.seg.<relation>"):
//
//	magic "MDMSEG01"
//	relation name, covered CSN (the version floor: the row image is the
//	    committed state at exactly this CSN), nextRow
//	schema: uvarint field count, then (name, kind, reftype)
//	indexes: uvarint count, then (name, unique, columns, stats?)
//	    stats? = 0 | 1 rows distinct unique (uvarint boundary count,
//	    boundaries) — the planner statistics current at segment write
//	rows: uvarint count, then (rowid, tuple)
//	crc32c of everything after the magic
//
// Crash safety: segments are written and renamed into place before the
// manifest that references them is installed, and the log is only reset
// after the manifest rename is durable.  A crash anywhere in between
// leaves either the old manifest or the new one, and in both cases the
// full pre-reset log: replaying it over segment images taken at any CSN
// it covers converges, because replay is idempotent redo.

const (
	manifestMagic = "MDMMAN01"
	segmentMagic  = "MDMSEG01"
	// segmentPrefix starts every segment file's base name.
	segmentPrefix = "mdm.seg."
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// dirtyDDL is the dirty stamp used where no precise CSN exists — schema
// operations, crash-recovery replay, and replica apply.  It compares
// greater than every covered CSN, so the relation is rewritten by the
// next checkpoint unconditionally.
const dirtyDDL = ^uint64(0)

// manifestEntry describes one relation segment referenced by the
// manifest.
type manifestEntry struct {
	name    string // relation name
	file    string // segment file base name within the database directory
	covered uint64 // CSN the segment's row image corresponds to
	bytes   int64  // segment file size
}

// SegmentFileName returns the base name of the segment file holding the
// named relation.  Bytes outside [A-Za-z0-9_.-] are percent-encoded so
// any relation name maps to a distinct, predictable file name.
func SegmentFileName(relation string) string {
	safe := true
	for i := 0; i < len(relation); i++ {
		c := relation[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == '.' || c == '-') {
			safe = false
			break
		}
	}
	if safe {
		return segmentPrefix + relation
	}
	buf := make([]byte, 0, len(relation)*3)
	const hexdigits = "0123456789abcdef"
	for i := 0; i < len(relation); i++ {
		c := relation[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == '.' || c == '-' {
			buf = append(buf, c)
		} else {
			buf = append(buf, '%', hexdigits[c>>4], hexdigits[c&0xf])
		}
	}
	return segmentPrefix + string(buf)
}

func (db *DB) manifestPath() string { return filepath.Join(db.opts.Dir, ManifestFileName) }

// ManifestSegments returns the base names of the segment files a
// manifest image references — the files a bootstrap must copy alongside
// it.  Anything that is not a well-formed manifest is an error.
func ManifestSegments(data []byte) ([]string, error) {
	body, err := checkFrame(data, manifestMagic, "manifest")
	if err != nil {
		return nil, err
	}
	r := &byteReader{body: body, ctx: "manifest"}
	if _, err := r.uvarint(); err != nil { // epoch
		return nil, err
	}
	nseq, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nseq; i++ {
		if _, err := r.str(); err != nil {
			return nil, err
		}
		if _, err := r.uvarint(); err != nil {
			return nil, err
		}
	}
	nrel, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	var files []string
	for i := uint64(0); i < nrel; i++ {
		if _, err := r.str(); err != nil { // relation name
			return nil, err
		}
		file, err := r.str()
		if err != nil {
			return nil, err
		}
		if _, err := r.uvarint(); err != nil { // covered CSN
			return nil, err
		}
		if _, err := r.uvarint(); err != nil { // byte size
			return nil, err
		}
		files = append(files, file)
	}
	return files, nil
}

// writeSegmentFile writes the named relation's segment at CSN at — the
// committed row image the MVCC version store serves at that CSN — via
// tmp file, fsync, rename.  The rename only becomes durable at the next
// directory fsync, which the checkpoint issues before installing the
// manifest that references the file.  The scan takes only brief shared
// holds of the relation latch, never transaction locks: writers proceed
// concurrently, which is what makes the checkpoint fuzzy.  w buffers
// the file: Reset onto it here, so one checkpoint's segments share a
// single buffer.
func (db *DB) writeSegmentFile(w *bufio.Writer, rel *Relation, at uint64) (manifestEntry, error) {
	type segIndex struct {
		spec  IndexSpec
		stats *IndexStats
	}
	rel.mu.RLock()
	nextRow := rel.nextRow
	schema := rel.schema
	ixs := make([]segIndex, 0, len(rel.indexes))
	for _, ix := range rel.indexes {
		ixs = append(ixs, segIndex{spec: ix.spec, stats: ix.stats})
	}
	rel.mu.RUnlock()

	// The row count precedes the rows, so the rows visible at at are
	// walked twice, to count them and to write them, and never
	// collected.  at is pinned (or commits are held off): both walks
	// see the same rows.
	nrows := rel.snapScan(at, nil, func(RowID, value.Row) bool { return true })

	base := SegmentFileName(rel.name)
	path := filepath.Join(db.opts.Dir, base)
	tmp := path + ".tmp"
	f, err := db.fs.Create(tmp)
	if err != nil {
		return manifestEntry{}, fmt.Errorf("storage: segment %s: %w", rel.name, err)
	}
	defer db.fs.Remove(tmp)
	w.Reset(f)
	if _, err := w.WriteString(segmentMagic); err != nil {
		f.Close()
		return manifestEntry{}, err
	}
	crc := uint32(0)
	size := int64(len(segmentMagic))
	emit := func(buf []byte) error {
		crc = crc32.Update(crc, castagnoli, buf)
		size += int64(len(buf))
		_, err := w.Write(buf)
		return err
	}

	var buf []byte
	buf = appendString(buf, rel.name)
	buf = binary.AppendUvarint(buf, at)
	buf = binary.AppendUvarint(buf, nextRow)
	buf = binary.AppendUvarint(buf, uint64(schema.Len()))
	for i := 0; i < schema.Len(); i++ {
		fl := schema.Field(i)
		buf = appendString(buf, fl.Name)
		buf = append(buf, byte(fl.Kind))
		buf = appendString(buf, fl.RefType)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ixs)))
	for _, ix := range ixs {
		buf = appendString(buf, ix.spec.Name)
		if ix.spec.Unique {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(ix.spec.Columns)))
		for _, c := range ix.spec.Columns {
			buf = appendString(buf, c)
		}
		if ix.stats == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(ix.stats.Rows))
			buf = binary.AppendUvarint(buf, uint64(ix.stats.Distinct))
			buf = binary.AppendUvarint(buf, uint64(len(ix.stats.Boundaries)))
			for _, b := range ix.stats.Boundaries {
				buf = binary.AppendUvarint(buf, uint64(len(b)))
				buf = append(buf, b...)
			}
		}
	}
	buf = binary.AppendUvarint(buf, nrows)
	if err = emit(buf); err == nil {
		var written uint64
		rel.snapScan(at, nil, func(id RowID, t value.Row) bool {
			buf = binary.AppendUvarint(buf[:0], id)
			buf = t.AppendTo(buf)
			written++
			err = emit(buf)
			return err == nil
		})
		if err == nil && written != nrows {
			err = fmt.Errorf("storage: segment %s: %d rows counted at CSN %d, %d written", rel.name, nrows, at, written)
		}
	}
	if err != nil {
		f.Close()
		return manifestEntry{}, err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	if _, err := w.Write(tail[:]); err != nil {
		f.Close()
		return manifestEntry{}, err
	}
	size += 4
	if err := w.Flush(); err != nil {
		f.Close()
		return manifestEntry{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return manifestEntry{}, err
	}
	if err := f.Close(); err != nil {
		return manifestEntry{}, err
	}
	if err := db.fs.Rename(tmp, path); err != nil {
		return manifestEntry{}, err
	}
	return manifestEntry{name: rel.name, file: base, covered: at, bytes: size}, nil
}

// writeManifestFile installs the manifest naming the given entries:
// tmp file, fsync, rename over the previous manifest.  The caller makes
// the rename durable with a directory fsync.  It returns the manifest's
// byte size.
func (db *DB) writeManifestFile(entries []manifestEntry, epoch uint64) (int64, error) {
	path := db.manifestPath()
	tmp := path + ".tmp"
	f, err := db.fs.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("storage: manifest: %w", err)
	}
	defer db.fs.Remove(tmp)

	var buf []byte
	buf = binary.AppendUvarint(buf, epoch)
	db.seqMu.Lock()
	seqNames := make([]string, 0, len(db.seqs))
	for n := range db.seqs {
		seqNames = append(seqNames, n)
	}
	sort.Strings(seqNames)
	buf = binary.AppendUvarint(buf, uint64(len(seqNames)))
	for _, n := range seqNames {
		buf = appendString(buf, n)
		buf = binary.AppendUvarint(buf, db.seqs[n])
	}
	db.seqMu.Unlock()
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = appendString(buf, e.name)
		buf = appendString(buf, e.file)
		buf = binary.AppendUvarint(buf, e.covered)
		buf = binary.AppendUvarint(buf, uint64(e.bytes))
	}

	crc := crc32.Checksum(buf, castagnoli)
	out := make([]byte, 0, len(manifestMagic)+len(buf)+4)
	out = append(out, manifestMagic...)
	out = append(out, buf...)
	out = binary.LittleEndian.AppendUint32(out, crc)
	if _, err := f.Write(out); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := db.fs.Rename(tmp, path); err != nil {
		return 0, err
	}
	return int64(len(out)), nil
}

// byteReader decodes the uvarint/string framing shared by the manifest
// and segment formats.
type byteReader struct {
	body []byte
	pos  int
	ctx  string
}

func (r *byteReader) uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.body[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("storage: %s: bad varint", r.ctx)
	}
	r.pos += n
	return u, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.body)-r.pos) < n {
		return "", fmt.Errorf("storage: %s: short string", r.ctx)
	}
	s := string(r.body[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *byteReader) byte() (byte, error) {
	if r.pos >= len(r.body) {
		return 0, fmt.Errorf("storage: %s: truncated", r.ctx)
	}
	b := r.body[r.pos]
	r.pos++
	return b, nil
}

// checkFrame validates magic and trailing crc32c and returns the body.
func checkFrame(data []byte, magic, ctx string) ([]byte, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("storage: %s: bad magic", ctx)
	}
	body := data[len(magic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return nil, fmt.Errorf("storage: %s: checksum mismatch", ctx)
	}
	return body, nil
}

// loadManifest restores the database image from the segmented snapshot,
// reporting whether a manifest was present.  A missing manifest is not
// an error here — recover decides whether the directory is new or holds
// an image it cannot read.  Loaded relations start with their dirty
// stamps clear, so a reopen followed by a checkpoint reuses every
// segment the log replay did not touch.
func (db *DB) loadManifest(path string) (bool, error) {
	data, err := db.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("storage: load manifest: %w", err)
	}
	body, err := checkFrame(data, manifestMagic, "manifest")
	if err != nil {
		return false, err
	}
	r := &byteReader{body: body, ctx: "manifest"}
	epoch, err := r.uvarint()
	if err != nil {
		return false, err
	}
	nseq, err := r.uvarint()
	if err != nil {
		return false, err
	}
	for i := uint64(0); i < nseq; i++ {
		name, err := r.str()
		if err != nil {
			return false, err
		}
		val, err := r.uvarint()
		if err != nil {
			return false, err
		}
		db.seqs[name] = val
	}
	nrel, err := r.uvarint()
	if err != nil {
		return false, err
	}
	entries := make(map[string]manifestEntry, nrel)
	for i := uint64(0); i < nrel; i++ {
		var e manifestEntry
		if e.name, err = r.str(); err != nil {
			return false, err
		}
		if e.file, err = r.str(); err != nil {
			return false, err
		}
		if e.covered, err = r.uvarint(); err != nil {
			return false, err
		}
		sz, err := r.uvarint()
		if err != nil {
			return false, err
		}
		e.bytes = int64(sz)
		if err := db.loadSegment(e); err != nil {
			return false, err
		}
		// CSNs name commits of one process lifetime only — the clock
		// restarts at 0 on open.  A persisted covered value is therefore
		// meaningless now; floor it so any commit in this lifetime (CSN
		// >= 1) outranks it.  Relations the log replay touches are
		// force-stamped besides; untouched segments stay reusable.
		e.covered = 0
		entries[e.name] = e
	}
	db.manifest = entries
	db.manifestEpoch = epoch
	return true, nil
}

// loadSegment restores one relation from its segment file.
func (db *DB) loadSegment(e manifestEntry) error {
	data, err := db.fs.ReadFile(filepath.Join(db.opts.Dir, e.file))
	if err != nil {
		return fmt.Errorf("storage: segment %s (%s): %w", e.name, e.file, err)
	}
	ctx := "segment " + e.name
	body, err := checkFrame(data, segmentMagic, ctx)
	if err != nil {
		return err
	}
	r := &byteReader{body: body, ctx: ctx}
	name, err := r.str()
	if err != nil {
		return err
	}
	if name != e.name {
		return fmt.Errorf("storage: segment file %s holds relation %q, manifest says %q", e.file, name, e.name)
	}
	if _, err := r.uvarint(); err != nil { // covered CSN; authoritative copy is the manifest's
		return err
	}
	nextRow, err := r.uvarint()
	if err != nil {
		return err
	}
	nfields, err := r.uvarint()
	if err != nil {
		return err
	}
	fields := make([]value.Field, nfields)
	for j := range fields {
		if fields[j].Name, err = r.str(); err != nil {
			return err
		}
		kb, err := r.byte()
		if err != nil {
			return err
		}
		fields[j].Kind = value.Kind(kb)
		if fields[j].RefType, err = r.str(); err != nil {
			return err
		}
	}
	rel := newRelation(name, value.NewSchema(fields...))
	rel.nextRow = nextRow

	nix, err := r.uvarint()
	if err != nil {
		return err
	}
	specs := make([]IndexSpec, nix)
	stats := make([]*IndexStats, nix)
	for j := range specs {
		if specs[j].Name, err = r.str(); err != nil {
			return err
		}
		uniq, err := r.byte()
		if err != nil {
			return err
		}
		specs[j].Unique = uniq == 1
		ncols, err := r.uvarint()
		if err != nil {
			return err
		}
		cols := make([]string, ncols)
		for k := range cols {
			if cols[k], err = r.str(); err != nil {
				return err
			}
		}
		specs[j].Columns = cols
		have, err := r.byte()
		if err != nil {
			return err
		}
		if have == 1 {
			st := &IndexStats{Unique: specs[j].Unique}
			rows, err := r.uvarint()
			if err != nil {
				return err
			}
			st.Rows = int(rows)
			distinct, err := r.uvarint()
			if err != nil {
				return err
			}
			st.Distinct = int(distinct)
			nb, err := r.uvarint()
			if err != nil {
				return err
			}
			st.Boundaries = make([][]byte, nb)
			for k := range st.Boundaries {
				bl, err := r.uvarint()
				if err != nil {
					return err
				}
				if uint64(len(r.body)-r.pos) < bl {
					return fmt.Errorf("storage: %s: short boundary", ctx)
				}
				st.Boundaries[k] = append([]byte(nil), r.body[r.pos:r.pos+int(bl)]...)
				r.pos += int(bl)
			}
			stats[j] = st
		}
	}

	nrows, err := r.uvarint()
	if err != nil {
		return err
	}
	for j := uint64(0); j < nrows; j++ {
		id, err := r.uvarint()
		if err != nil {
			return err
		}
		if id == 0 {
			return fmt.Errorf("storage: %s: row id 0", ctx)
		}
		t, n, err := value.ParseRow(r.body[r.pos:])
		if err != nil {
			return fmt.Errorf("storage: %s row %d: %w", ctx, id, err)
		}
		r.pos += n
		rel.setLocked(id, t, nil)
		if id >= rel.nextRow {
			rel.nextRow = id + 1
		}
	}
	for j, spec := range specs {
		if err := rel.addIndex(spec); err != nil {
			return err
		}
		if stats[j] != nil {
			if ix := rel.findIndex(spec.Name); ix != nil {
				ix.stats = stats[j]
				ix.statsAt = rel.modCount
			}
		}
	}
	rel.statsRebuilds = db.m.statsRebuilds
	db.relations[e.name] = rel
	return nil
}
