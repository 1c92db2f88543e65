// Package wire defines the MDM network protocol: the framed binary
// messages a client exchanges with a served music data manager
// (cmd/mdmd), and the error-code table that maps server-side failures
// onto the mdm.Err* sentinels so clients can errors.Is across the
// network.
//
// Framing mirrors the write-ahead log's record frames: every
// frame is a 4-byte little-endian payload length, a 4-byte CRC32C of
// the payload, and the payload itself.  A payload is one message: a
// 1-byte type tag, the uvarint request id, then the type-specific body.
// Request ids are assigned by the client and echoed on every response,
// so a Cancel frame can name the in-flight request it aborts.
//
// Conversation shape: the client opens with Hello (protocol version and
// auth token) and the server answers HelloOK or Error.  Thereafter the
// client issues Exec / Prepare / ExecStmt / CloseStmt requests, each
// answered by exactly one Result / StmtOK / OK / Error carrying the
// same request id; requests on one connection execute serially, in
// order.  Cancel and Ping are out-of-band: the server handles them
// while a statement is executing (Cancel answers nothing itself; the
// canceled request answers with Error{CodeCanceled}).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/value"
)

// ProtoVersion is the protocol revision spoken by this package.  A
// server refuses a Hello whose version it does not know.
const ProtoVersion = 1

// MaxFrame bounds a frame payload (64 MiB): large enough for bulk
// result sets, small enough that a corrupt length prefix cannot drive
// an allocation of arbitrary size.
const MaxFrame = 64 << 20

// Message type tags.
const (
	tagHello     = 'H'
	tagHelloOK   = 'h'
	tagExec      = 'E'
	tagPrepare   = 'P'
	tagStmtOK    = 'p'
	tagExecStmt  = 'X'
	tagCloseStmt = 'C'
	tagOK        = 'k'
	tagResult    = 'R'
	tagError     = 'e'
	tagCancel    = 'N'
	tagPing      = 'G'
	tagPong      = 'g'
)

// Msg is one protocol message.
type Msg interface{ wireMsg() }

// Hello opens a connection: protocol version plus the (stub) auth
// token.  TLS, when configured, wraps the whole stream below this
// layer.
type Hello struct {
	Proto uint64
	Token string
}

// HelloOK accepts a Hello.
type HelloOK struct {
	Proto uint64
}

// Exec requests execution of DDL or QUEL source text.
type Exec struct {
	Src string
}

// Prepare requests server-side preparation of parameterized QUEL.
type Prepare struct {
	Src string
}

// StmtOK answers Prepare with the server-assigned statement id.
type StmtOK struct {
	StmtID    uint64
	NumParams uint64
}

// ExecStmt executes a prepared statement with bound arguments.
type ExecStmt struct {
	StmtID uint64
	Args   value.Tuple
}

// CloseStmt releases a prepared statement.
type CloseStmt struct {
	StmtID uint64
}

// OK is the bodyless success answer (CloseStmt).
type OK struct{}

// Result answers Exec and ExecStmt: the structured rows for retrieves,
// the affected count for updates, and the printable output for DDL.
type Result struct {
	DDL      bool
	Affected int64
	Output   string // DDL schema messages; empty for QUEL
	Columns  []string
	Rows     []value.Tuple
}

// Error answers any request that failed.  Code maps onto the mdm.Err*
// sentinels (see errcode.go); Msg carries the server's error text.
type Error struct {
	Code uint16
	Msg  string
}

// Cancel asks the server to abort the in-flight request with id Req on
// this connection.  It is fire-and-forget: the canceled request itself
// answers with Error{CodeCanceled}.
type Cancel struct {
	Req uint64
}

// Ping checks liveness out-of-band; the server answers Pong with the
// same request id.
type Ping struct{}

// Pong answers Ping.
type Pong struct{}

func (Hello) wireMsg()     {}
func (HelloOK) wireMsg()   {}
func (Exec) wireMsg()      {}
func (Prepare) wireMsg()   {}
func (StmtOK) wireMsg()    {}
func (ExecStmt) wireMsg()  {}
func (CloseStmt) wireMsg() {}
func (OK) wireMsg()        {}
func (Result) wireMsg()    {}
func (Error) wireMsg()     {}
func (Cancel) wireMsg()    {}
func (Ping) wireMsg()      {}
func (Pong) wireMsg()      {}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendMessage appends the payload encoding of m (type tag, request
// id, body) to dst.
func AppendMessage(dst []byte, reqID uint64, m Msg) ([]byte, error) {
	switch x := m.(type) {
	case Hello:
		dst = append(dst, tagHello)
		dst = binary.AppendUvarint(dst, reqID)
		dst = binary.AppendUvarint(dst, x.Proto)
		dst = appendString(dst, x.Token)
	case HelloOK:
		dst = append(dst, tagHelloOK)
		dst = binary.AppendUvarint(dst, reqID)
		dst = binary.AppendUvarint(dst, x.Proto)
	case Exec:
		dst = append(dst, tagExec)
		dst = binary.AppendUvarint(dst, reqID)
		dst = appendString(dst, x.Src)
	case Prepare:
		dst = append(dst, tagPrepare)
		dst = binary.AppendUvarint(dst, reqID)
		dst = appendString(dst, x.Src)
	case StmtOK:
		dst = append(dst, tagStmtOK)
		dst = binary.AppendUvarint(dst, reqID)
		dst = binary.AppendUvarint(dst, x.StmtID)
		dst = binary.AppendUvarint(dst, x.NumParams)
	case ExecStmt:
		dst = append(dst, tagExecStmt)
		dst = binary.AppendUvarint(dst, reqID)
		dst = binary.AppendUvarint(dst, x.StmtID)
		dst = value.AppendTuple(dst, x.Args)
	case CloseStmt:
		dst = append(dst, tagCloseStmt)
		dst = binary.AppendUvarint(dst, reqID)
		dst = binary.AppendUvarint(dst, x.StmtID)
	case OK:
		dst = append(dst, tagOK)
		dst = binary.AppendUvarint(dst, reqID)
	case Result:
		dst = append(dst, tagResult)
		dst = binary.AppendUvarint(dst, reqID)
		var flags byte
		if x.DDL {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, uint64(x.Affected))
		dst = appendString(dst, x.Output)
		dst = binary.AppendUvarint(dst, uint64(len(x.Columns)))
		for _, c := range x.Columns {
			dst = appendString(dst, c)
		}
		dst = binary.AppendUvarint(dst, uint64(len(x.Rows)))
		for _, row := range x.Rows {
			dst = value.AppendTuple(dst, row)
		}
	case Error:
		dst = append(dst, tagError)
		dst = binary.AppendUvarint(dst, reqID)
		dst = binary.AppendUvarint(dst, uint64(x.Code))
		dst = appendString(dst, x.Msg)
	case Cancel:
		dst = append(dst, tagCancel)
		dst = binary.AppendUvarint(dst, reqID)
		dst = binary.AppendUvarint(dst, x.Req)
	case Ping:
		dst = append(dst, tagPing)
		dst = binary.AppendUvarint(dst, reqID)
	case Pong:
		dst = append(dst, tagPong)
		dst = binary.AppendUvarint(dst, reqID)
	default:
		return nil, fmt.Errorf("wire: cannot encode message %T", m)
	}
	return dst, nil
}

// decoder walks a payload with bounds checking.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint")
	}
	d.pos += n
	return u, nil
}

func (d *decoder) string() (string, error) {
	ln, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)-d.pos) < ln {
		return "", fmt.Errorf("wire: truncated string (want %d bytes, have %d)", ln, len(d.buf)-d.pos)
	}
	s := string(d.buf[d.pos : d.pos+int(ln)])
	d.pos += int(ln)
	return s, nil
}

func (d *decoder) tuple() (value.Tuple, error) {
	t, n, err := value.DecodeTuple(d.buf[d.pos:])
	if err != nil {
		return nil, err
	}
	d.pos += n
	return t, nil
}

// DecodeMessage decodes one payload into its request id and message.
func DecodeMessage(payload []byte) (uint64, Msg, error) {
	if len(payload) < 1 {
		return 0, nil, fmt.Errorf("wire: empty payload")
	}
	d := &decoder{buf: payload, pos: 1}
	reqID, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	switch payload[0] {
	case tagHello:
		var m Hello
		if m.Proto, err = d.uvarint(); err != nil {
			return 0, nil, err
		}
		if m.Token, err = d.string(); err != nil {
			return 0, nil, err
		}
		return reqID, m, nil
	case tagHelloOK:
		var m HelloOK
		if m.Proto, err = d.uvarint(); err != nil {
			return 0, nil, err
		}
		return reqID, m, nil
	case tagExec:
		var m Exec
		if m.Src, err = d.string(); err != nil {
			return 0, nil, err
		}
		return reqID, m, nil
	case tagPrepare:
		var m Prepare
		if m.Src, err = d.string(); err != nil {
			return 0, nil, err
		}
		return reqID, m, nil
	case tagStmtOK:
		var m StmtOK
		if m.StmtID, err = d.uvarint(); err != nil {
			return 0, nil, err
		}
		if m.NumParams, err = d.uvarint(); err != nil {
			return 0, nil, err
		}
		return reqID, m, nil
	case tagExecStmt:
		var m ExecStmt
		if m.StmtID, err = d.uvarint(); err != nil {
			return 0, nil, err
		}
		if m.Args, err = d.tuple(); err != nil {
			return 0, nil, err
		}
		return reqID, m, nil
	case tagCloseStmt:
		var m CloseStmt
		if m.StmtID, err = d.uvarint(); err != nil {
			return 0, nil, err
		}
		return reqID, m, nil
	case tagOK:
		return reqID, OK{}, nil
	case tagResult:
		var m Result
		if d.pos >= len(payload) {
			return 0, nil, fmt.Errorf("wire: truncated result flags")
		}
		m.DDL = payload[d.pos]&1 != 0
		d.pos++
		aff, err := d.uvarint()
		if err != nil {
			return 0, nil, err
		}
		m.Affected = int64(aff)
		if m.Output, err = d.string(); err != nil {
			return 0, nil, err
		}
		ncols, err := d.uvarint()
		if err != nil {
			return 0, nil, err
		}
		if ncols > uint64(len(payload)) { // each column name costs >= 1 byte
			return 0, nil, fmt.Errorf("wire: implausible column count %d", ncols)
		}
		m.Columns = make([]string, 0, ncols)
		for i := uint64(0); i < ncols; i++ {
			c, err := d.string()
			if err != nil {
				return 0, nil, err
			}
			m.Columns = append(m.Columns, c)
		}
		nrows, err := d.uvarint()
		if err != nil {
			return 0, nil, err
		}
		if nrows > uint64(len(payload)) { // each row costs >= 1 byte
			return 0, nil, fmt.Errorf("wire: implausible row count %d", nrows)
		}
		m.Rows = make([]value.Tuple, 0, nrows)
		for i := uint64(0); i < nrows; i++ {
			row, err := d.tuple()
			if err != nil {
				return 0, nil, err
			}
			m.Rows = append(m.Rows, row)
		}
		return reqID, m, nil
	case tagError:
		var m Error
		code, err := d.uvarint()
		if err != nil {
			return 0, nil, err
		}
		if code > math.MaxUint16 {
			return 0, nil, fmt.Errorf("wire: error code %d out of range", code)
		}
		m.Code = uint16(code)
		if m.Msg, err = d.string(); err != nil {
			return 0, nil, err
		}
		return reqID, m, nil
	case tagCancel:
		var m Cancel
		if m.Req, err = d.uvarint(); err != nil {
			return 0, nil, err
		}
		return reqID, m, nil
	case tagPing:
		return reqID, Ping{}, nil
	case tagPong:
		return reqID, Pong{}, nil
	}
	return 0, nil, fmt.Errorf("wire: unknown message tag 0x%02x", payload[0])
}

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// Conn frames messages over a byte stream.  Writes are serialized by an
// internal mutex, so an out-of-band Cancel may be written while another
// goroutine owns the request/response conversation; reads are likewise
// serialized (the protocol has a single reader per side).
type Conn struct {
	wmu sync.Mutex
	bw  *bufio.Writer
	rmu sync.Mutex
	br  *bufio.Reader
	c   io.Closer // nil if the stream is not closable
}

// NewConn wraps one end of a full-duplex byte stream.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{bw: bufio.NewWriterSize(rw, 64<<10), br: bufio.NewReaderSize(rw, 64<<10)}
	if cl, ok := rw.(io.Closer); ok {
		c.c = cl
	}
	return c
}

// Write frames m with reqID and flushes it.
func (c *Conn) Write(reqID uint64, m Msg) error {
	payload, err := AppendMessage(nil, reqID, m)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), MaxFrame)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, frameCRC))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Read reads and decodes the next frame.
func (c *Conn) Read() (uint64, Msg, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var hdr [8]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if ln > MaxFrame {
		return 0, nil, fmt.Errorf("wire: implausible frame length %d", ln)
	}
	payload := make([]byte, ln)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, nil, err
	}
	if crc32.Checksum(payload, frameCRC) != sum {
		return 0, nil, fmt.Errorf("wire: frame checksum mismatch")
	}
	return DecodeMessage(payload)
}

// Close closes the underlying stream if it is closable.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}
