// Package wal implements the write-ahead log of the music data manager.
//
// The paper (§2) requires the MDM to provide "typical database
// operations, some standard, such as concurrency control and recovery".
// This package is the recovery half: an append-only redo log with CRC32C
// framing and torn-tail tolerance.  The storage engine keeps relations in
// memory and durability is log + checkpoint image: every mutation is
// logged before it is applied, checkpoints bring the image up to date
// and truncate the log, and recovery replays the operations of committed transactions in log
// order (a redo-only, two-pass scheme: pass one collects commit records,
// pass two reapplies).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/value"
)

// RecordType identifies a log record.
type RecordType uint8

// The log record types.
const (
	RecBegin RecordType = iota + 1
	RecCommit
	RecAbort
	RecInsert
	RecDelete
	RecUpdate
	RecCheckpoint
	// Schema records: relation and index creation.  They carry no
	// transaction and are replayed unconditionally, in log order, so
	// that data records for relations created after the last checkpoint
	// can be reapplied.  The definition is encoded in the New tuple.
	RecCreateRelation
	RecCreateIndex
	RecDropRelation
	RecDropIndex
)

// String returns the record type name.
func (rt RecordType) String() string {
	switch rt {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecUpdate:
		return "UPDATE"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecCreateRelation:
		return "CREATE_RELATION"
	case RecCreateIndex:
		return "CREATE_INDEX"
	case RecDropRelation:
		return "DROP_RELATION"
	case RecDropIndex:
		return "DROP_INDEX"
	}
	return fmt.Sprintf("RecordType(%d)", uint8(rt))
}

// Record is one log record.  Which fields are meaningful depends on Type:
// data-change records carry the relation name, row id, and before/after
// tuple images.
//
// A writer that holds an image already encoded — a stored value.Row —
// sets OldRow or NewRow instead of Old or New: the row's bytes are the
// bytes AppendTuple writes for its tuple, so the log is the same either
// way.  Decoded records carry New only: neither log replay nor replica
// apply reads a before image, so decoding validates Old's bytes and
// skips them.  A decoded record re-encoded (a shipped record a replica
// logs) therefore has no before image.
type Record struct {
	Type     RecordType
	TxID     uint64
	Relation string
	RowID    uint64
	Old      value.Tuple // DELETE, UPDATE; never set by decoding
	New      value.Tuple // INSERT, UPDATE

	OldRow, NewRow value.Row // Old and New as encoded rows; zero when unused
}

// encode appends the record payload (excluding framing) to dst.
func (r *Record) encode(dst []byte) []byte {
	dst = append(dst, byte(r.Type))
	dst = binary.AppendUvarint(dst, r.TxID)
	dst = binary.AppendUvarint(dst, uint64(len(r.Relation)))
	dst = append(dst, r.Relation...)
	dst = binary.AppendUvarint(dst, r.RowID)
	dst = appendImage(dst, r.Old, r.OldRow)
	dst = appendImage(dst, r.New, r.NewRow)
	return dst
}

// appendImage appends a presence flag and then the image: the row's
// bytes when it is set, else the tuple's encoding.
func appendImage(dst []byte, t value.Tuple, row value.Row) []byte {
	switch {
	case !row.IsZero():
		return row.AppendTo(append(dst, 1))
	case t == nil:
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return value.AppendTuple(dst, t)
}

// decodeRecord parses a record payload.
func decodeRecord(buf []byte) (*Record, error) {
	if len(buf) < 1 {
		return nil, errors.New("wal: empty record")
	}
	r := &Record{Type: RecordType(buf[0])}
	pos := 1
	var n int
	u, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, errors.New("wal: bad txid")
	}
	r.TxID = u
	pos += n
	ln, n := binary.Uvarint(buf[pos:])
	if n <= 0 || uint64(len(buf)-pos-n) < ln {
		return nil, errors.New("wal: bad relation name")
	}
	pos += n
	r.Relation = string(buf[pos : pos+int(ln)])
	pos += int(ln)
	u, n = binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, errors.New("wal: bad rowid")
	}
	r.RowID = u
	pos += n
	pos, err := skipImage(buf, pos) // Old: validated, never built
	if err != nil {
		return nil, err
	}
	if r.New, _, err = decodeMaybeTuple(buf, pos); err != nil {
		return nil, err
	}
	return r, nil
}

func decodeMaybeTuple(buf []byte, pos int) (value.Tuple, int, error) {
	if pos >= len(buf) {
		return nil, 0, errors.New("wal: truncated tuple flag")
	}
	flag := buf[pos]
	pos++
	if flag == 0 {
		return nil, pos, nil
	}
	t, n, err := value.DecodeTuple(buf[pos:])
	if err != nil {
		return nil, 0, err
	}
	return t, pos + n, nil
}

// skipImage validates the image at buf[pos:] as decodeMaybeTuple does,
// building nothing, and returns the offset after it.
func skipImage(buf []byte, pos int) (int, error) {
	if pos >= len(buf) {
		return 0, errors.New("wal: truncated tuple flag")
	}
	flag := buf[pos]
	pos++
	if flag == 0 {
		return pos, nil
	}
	n, err := value.SkipTuple(buf[pos:])
	if err != nil {
		return 0, err
	}
	return pos + n, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTornTail reports that a log file ends mid-record: the bytes after
// the last complete, checksum-valid record are consistent with a write
// that a crash interrupted.  A torn tail is legal — OpenFS truncates it
// and appends over it, and ReplayFS replays the valid prefix — which is
// exactly why it must be distinguishable from ErrCorrupt: replication
// promotion truncates torn tails and proceeds, but refuses to serve a
// log with interior damage.
var ErrTornTail = errors.New("wal: torn tail (log ends mid-record)")

// ErrCorrupt reports damage that a crashed write cannot explain: a
// complete record frame whose checksum does not match (with further log
// content behind it), or a checksum-valid record that does not decode.
// Consumers must refuse the log rather than silently truncate — interior
// records past the damage may hold acknowledged commits.
var ErrCorrupt = errors.New("wal: corrupt record")

// Log is an append-only write-ahead log backed by a single file.
//
// The log is fail-stop: after any I/O error (a failed append flush or —
// critically — a failed fsync), it poisons itself and every subsequent
// Append/Sync/Reset returns the sticky first error.  A failed fsync
// leaves the kernel page state unknowable (the error may have been
// reported once and the dirty pages dropped), so continuing to append
// past it would build durable-looking records on an undurable prefix;
// the only safe recovery is to reopen and rescan (fsyncgate semantics).
type Log struct {
	fs   fault.FS
	path string
	f    fault.File
	w    *bufio.Writer
	off  atomic.Int64 // current end offset (next LSN); atomic so Size is readable off the flush path
	buf  []byte
	err  error // sticky poison; nil while healthy

	m *logMetrics // nil when unobserved
}

// logMetrics holds the resolved obs handles for a log.
type logMetrics struct {
	records *obs.Counter   // wal.append.records
	bytes   *obs.Counter   // wal.append.bytes (framing included)
	fsync   *obs.Histogram // wal.fsync.ns
	trace   *obs.Trace
}

// SetObserver wires the log's metrics into reg: the wal.append.records
// and wal.append.bytes counters and the wal.fsync.ns latency histogram.
// Call once after Open, before concurrent use; nil detaches.
func (l *Log) SetObserver(reg *obs.Registry) {
	if reg == nil {
		l.m = nil
		return
	}
	l.m = &logMetrics{
		records: reg.Counter("wal.append.records"),
		bytes:   reg.Counter("wal.append.bytes"),
		fsync:   reg.Histogram("wal.fsync.ns"),
		trace:   reg.Trace(),
	}
}

// Open opens (creating if necessary) the log at path on the real
// filesystem.  The returned log is positioned at the end of the existing
// valid records; a torn tail left by a crash is truncated away, but a
// log with interior corruption (damage a crash cannot produce) is
// refused with ErrCorrupt rather than silently truncated.
func Open(path string) (*Log, error) { return OpenFS(fault.Disk{}, path) }

// OpenFS is Open over an explicit filesystem (fault injection point).
func OpenFS(fs fault.FS, path string) (*Log, error) {
	end, err := validPrefix(fs, path)
	if err != nil && !errors.Is(err, ErrTornTail) {
		return nil, err
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{fs: fs, path: path, f: f, w: bufio.NewWriterSize(f, 64<<10)}
	l.off.Store(end)
	return l, nil
}

// poison records the first I/O failure and returns the sticky error.
func (l *Log) poison(op string, err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("wal: %s: %w", op, err)
	}
	return l.err
}

// Err returns the poisoning error, or nil while the log is healthy.
func (l *Log) Err() error { return l.err }

// validPrefix scans the file and returns the byte offset of the end of
// the last complete, checksum-valid record, plus a classification of
// whatever follows it: nil for a clean end, ErrTornTail for bytes a
// crashed write could have left, ErrCorrupt for damage a crash cannot
// explain (see scanFrames).
func validPrefix(fs fault.FS, path string) (int64, error) {
	f, err := fs.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	// Decode each record even though the bytes are not needed: a
	// checksummed-but-undecodable record must classify as corruption
	// here too, or Open would accept a log that Replay then refuses.
	return scanFrames(f, func(int64, *Record) error { return nil })
}

// scanFrames walks the record frames of an open log file, invoking fn
// (when non-nil) for each checksum-valid record, and classifies how the
// walk ended:
//
//   - nil: the file ends exactly at a frame boundary.
//   - ErrTornTail: the file ends mid-frame — a short header, a length
//     field whose payload runs past EOF, or a CRC-mismatched frame that
//     is the final thing in the file.  Appends tear as prefixes, so all
//     of these are what a crashed write leaves behind.
//   - ErrCorrupt: an invalid frame with log content behind it (a crash
//     cannot damage the middle of a file), or a checksum-valid record
//     that does not decode (a tear cannot survive the CRC).
//
// The returned offset is the end of the valid prefix in every case.  A
// callback or I/O error is returned as-is.
func scanFrames(f fault.File, fn func(lsn int64, r *Record) error) (int64, error) {
	size := int64(-1) // unknown until needed
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	br := bufio.NewReaderSize(f, 64<<10)
	var off int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return off, nil
			}
			return off, fmt.Errorf("%w: short header at offset %d", ErrTornTail, off)
		}
		ln := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if ln > 1<<28 {
			// No legal record is this large.  If the claimed payload
			// would run past EOF the length field itself is torn; if the
			// bytes are actually there, this is interior damage.
			if size >= 0 && off+8+int64(ln) <= size {
				return off, fmt.Errorf("%w: implausible record length %d at offset %d", ErrCorrupt, ln, off)
			}
			return off, fmt.Errorf("%w: torn length field at offset %d", ErrTornTail, off)
		}
		payload := make([]byte, ln)
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, fmt.Errorf("%w: short payload at offset %d", ErrTornTail, off)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			// A complete frame with a bad checksum: a torn final write if
			// it is the last thing in the file, corruption otherwise.
			if _, err := br.ReadByte(); err == io.EOF {
				return off, fmt.Errorf("%w: checksum mismatch in final record at offset %d", ErrTornTail, off)
			}
			return off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		if fn != nil {
			rec, err := decodeRecord(payload)
			if err != nil {
				return off, fmt.Errorf("%w: checksummed record does not decode at offset %d: %v", ErrCorrupt, off, err)
			}
			if err := fn(off, rec); err != nil {
				return off, err
			}
		}
		off += 8 + int64(ln)
	}
}

// Append writes a record to the log buffer and returns its LSN (the byte
// offset at which it begins).  The record is durable only after Sync.
// A poisoned log refuses to append.
func (l *Log) Append(r *Record) (int64, error) {
	if l.err != nil {
		return 0, l.err
	}
	l.buf = l.buf[:0]
	l.buf = r.encode(l.buf)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(l.buf)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(l.buf, castagnoli))
	lsn := l.off.Load()
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, l.poison("append", err)
	}
	if _, err := l.w.Write(l.buf); err != nil {
		return 0, l.poison("append", err)
	}
	l.off.Add(8 + int64(len(l.buf)))
	if l.m != nil {
		l.m.records.Inc()
		l.m.bytes.Add(uint64(8 + len(l.buf)))
	}
	return lsn, nil
}

// Sync flushes buffered records and fsyncs the file, making all appended
// records durable.  A flush or fsync failure poisons the log: the write
// may or may not have reached stable storage, and no further appends are
// accepted over that ambiguity.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		return l.poison("flush", err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return l.poison("fsync", err)
	}
	if l.m != nil {
		l.m.fsync.ObserveSince(start)
		if l.m.trace.Enabled() {
			l.m.trace.Emit("wal.fsync", l.path, start, time.Since(start))
		}
	}
	return nil
}

// Size returns the current log size in bytes (including buffered
// records).  Unlike the other Log methods it is safe to call from any
// goroutine, even while a group-commit leader is appending.
func (l *Log) Size() int64 { return l.off.Load() }

// Reset truncates the log to empty.  Called after a checkpoint snapshot
// has been made durable.  Any failure poisons the log (the on-disk state
// is then unknown).
func (l *Log) Reset() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		return l.poison("flush", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return l.poison("reset", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return l.poison("reset", err)
	}
	l.w.Reset(l.f)
	l.off.Store(0)
	if err := l.f.Sync(); err != nil {
		return l.poison("fsync", err)
	}
	return nil
}

// Close syncs and closes the log.  A poisoned log closes the file
// without attempting the sync and reports the poisoning error.
func (l *Log) Close() error {
	if l.err != nil {
		l.f.Close()
		return l.err
	}
	if err := l.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Scan reads all valid records from the log file at path on the real
// filesystem, invoking fn for each in order.  After delivering the valid
// prefix it reports how the log ends: nil at a clean frame boundary,
// ErrTornTail for a crash-consistent partial final write, ErrCorrupt for
// interior damage.  Callers that only want the prefix may ignore
// ErrTornTail (errors.Is); ErrCorrupt should stop them cold.
func Scan(path string, fn func(lsn int64, r *Record) error) error {
	return ScanFS(fault.Disk{}, path, fn)
}

// ScanFS is Scan over an explicit filesystem.
func ScanFS(fs fault.FS, path string, fn func(lsn int64, r *Record) error) error {
	f, err := fs.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = scanFrames(f, fn)
	return err
}

// Replay performs redo-only recovery: it scans the log twice, first
// collecting the set of committed transactions, then invoking apply for
// each data-change record belonging to a committed transaction, in log
// order.  Records of unfinished or aborted transactions are skipped.
// A torn tail is normal after a crash and is replayed up to the tear;
// interior corruption propagates as ErrCorrupt and must refuse recovery.
func Replay(path string, apply func(r *Record) error) error {
	return ReplayFS(fault.Disk{}, path, apply)
}

// ReplayFS is Replay over an explicit filesystem.
func ReplayFS(fs fault.FS, path string, apply func(r *Record) error) error {
	committed := make(map[uint64]bool)
	err := ScanFS(fs, path, func(_ int64, r *Record) error {
		if r.Type == RecCommit {
			committed[r.TxID] = true
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrTornTail) {
		return err
	}
	err = ScanFS(fs, path, func(_ int64, r *Record) error {
		switch r.Type {
		case RecInsert, RecDelete, RecUpdate:
			if committed[r.TxID] {
				return apply(r)
			}
		case RecCreateRelation, RecCreateIndex, RecDropRelation, RecDropIndex:
			return apply(r)
		}
		return nil
	})
	if errors.Is(err, ErrTornTail) {
		return nil
	}
	return err
}
