package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mdm"
	"repro/internal/wire"
)

// helloTimeout bounds how long a fresh connection may sit silent before
// presenting its Hello (a slot-squatting defense).
const helloTimeout = 10 * time.Second

// drainLinger is how long a draining connection keeps reading after its
// in-flight statement completes, so requests the client already
// pipelined are answered with ErrShutdown instead of a dead socket.
const drainLinger = 100 * time.Millisecond

// request is one admitted wire message on its way to the worker, with
// the cancelation context the reader registered for it.
type request struct {
	reqID  uint64
	msg    wire.Msg
	ctx    context.Context
	cancel context.CancelFunc
}

// conn is one client connection: a reader goroutine that decodes frames
// and handles out-of-band messages (Cancel, Ping) inline, and a worker
// goroutine that executes statements serially, in arrival order, on the
// connection's own mdm session.
type conn struct {
	srv  *Server
	nc   net.Conn
	wc   *wire.Conn
	sess *mdm.Session

	// stmts is the per-connection prepared-statement table (worker
	// goroutine only); each handle owns its parse.
	stmts    map[uint64]*mdm.Stmt
	nextStmt uint64

	work chan request

	// inflight is the request the reader has handed to the worker and
	// whose context a Cancel frame may fire.
	cmu            sync.Mutex
	inflightReq    uint64
	inflightCancel context.CancelFunc
	hasInflight    bool

	busy      atomic.Bool
	closing   atomic.Bool
	closeOnce sync.Once
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:   s,
		nc:    nc,
		wc:    wire.NewConn(nc),
		sess:  s.m.NewSession(),
		stmts: make(map[uint64]*mdm.Stmt),
		work:  make(chan request),
	}
}

// hardClose severs the socket.  Idempotent; unblocks the reader.
func (c *conn) hardClose() {
	c.closeOnce.Do(func() { c.nc.Close() })
}

// drain begins a graceful close: new statements are refused, the
// in-flight one (if any) completes and is answered, then the socket
// closes.  Idle connections close immediately.
func (c *conn) drain() {
	c.closing.Store(true)
	if !c.busy.Load() {
		c.hardClose()
	}
}

// serve runs the connection to completion.
func (c *conn) serve() {
	defer c.hardClose()
	if !c.handshake() {
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.worker()
	}()
	c.readLoop()
	close(c.work)
	wg.Wait()
	for _, st := range c.stmts {
		st.Close()
	}
}

// handshake reads and answers the Hello frame.
func (c *conn) handshake() bool {
	c.nc.SetReadDeadline(time.Now().Add(helloTimeout))
	reqID, msg, err := c.wc.Read()
	if err != nil {
		return false
	}
	c.nc.SetReadDeadline(time.Time{})
	hello, ok := msg.(wire.Hello)
	if !ok {
		c.wc.Write(reqID, wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("expected hello, got %T", msg)})
		return false
	}
	if hello.Proto != wire.ProtoVersion {
		c.wc.Write(reqID, wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("unsupported protocol version %d (server speaks %d)", hello.Proto, wire.ProtoVersion)})
		return false
	}
	if !c.srv.authOK(hello.Token) {
		c.wc.Write(reqID, wire.ErrorFrom(mdm.ErrAuth))
		return false
	}
	if c.srv.Draining() {
		c.wc.Write(reqID, wire.ErrorFrom(mdm.ErrShutdown))
		return false
	}
	return c.wc.Write(reqID, wire.HelloOK{Proto: wire.ProtoVersion}) == nil
}

// readLoop decodes frames until the connection dies.  Statements are
// handed to the worker (the unbuffered channel applies per-connection
// backpressure); Cancel and Ping are handled inline so they work while
// a statement is executing.
func (c *conn) readLoop() {
	for {
		reqID, msg, err := c.wc.Read()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case wire.Cancel:
			c.cmu.Lock()
			if c.hasInflight && c.inflightReq == m.Req && c.inflightCancel != nil {
				c.inflightCancel()
				c.srv.obs.cancels.Inc()
			}
			c.cmu.Unlock()
		case wire.Ping:
			c.wc.Write(reqID, wire.Pong{})
		case wire.Exec, wire.Prepare, wire.ExecStmt, wire.CloseStmt:
			ctx, cancel := context.WithCancel(context.Background())
			c.cmu.Lock()
			c.inflightReq, c.inflightCancel, c.hasInflight = reqID, cancel, true
			c.cmu.Unlock()
			c.work <- request{reqID: reqID, msg: msg, ctx: ctx, cancel: cancel}
		default:
			c.wc.Write(reqID, wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("unexpected message %T", msg)})
		}
	}
}

// worker executes statements serially in arrival order.
func (c *conn) worker() {
	for req := range c.work {
		c.busy.Store(true)
		c.handle(req)
		req.cancel()
		c.cmu.Lock()
		if c.hasInflight && c.inflightReq == req.reqID {
			c.hasInflight = false
			c.inflightCancel = nil
		}
		c.cmu.Unlock()
		c.busy.Store(false)
		if c.closing.Load() {
			// Keep reading briefly so requests the client pipelined
			// before the drain are refused, not dropped; the reader
			// exits when the deadline fires and serve closes the socket.
			c.nc.SetReadDeadline(time.Now().Add(drainLinger))
		}
	}
}

func (c *conn) writeErr(reqID uint64, err error) {
	c.wc.Write(reqID, wire.ErrorFrom(err))
}

// handle admits and executes one statement request.
func (c *conn) handle(req request) {
	start := time.Now()
	defer c.srv.obs.frameNS.ObserveSince(start)
	if c.closing.Load() || c.srv.Draining() {
		// Queued behind the drain point: refuse rather than start new
		// work.  The statement that was executing when the drain began
		// never reaches here — it completes first.
		c.writeErr(req.reqID, mdm.ErrShutdown)
		return
	}
	if err := c.srv.gate.acquire(req.ctx); err != nil {
		c.writeErr(req.reqID, err)
		return
	}
	defer c.srv.gate.release()
	switch m := req.msg.(type) {
	case wire.Exec:
		res, err := c.sess.ExecContext(req.ctx, m.Src)
		if err != nil {
			c.writeErr(req.reqID, err)
			return
		}
		c.wc.Write(req.reqID, execResultFrame(res))
	case wire.Prepare:
		st, err := c.sess.PrepareContext(req.ctx, m.Src)
		if err != nil {
			c.writeErr(req.reqID, err)
			return
		}
		c.nextStmt++
		c.stmts[c.nextStmt] = st
		c.srv.obs.prepared.Inc()
		c.wc.Write(req.reqID, wire.StmtOK{StmtID: c.nextStmt, NumParams: uint64(st.NumParams())})
	case wire.ExecStmt:
		st, ok := c.stmts[m.StmtID]
		if !ok {
			c.writeErr(req.reqID, fmt.Errorf("%w: statement id %d", mdm.ErrBadStmt, m.StmtID))
			return
		}
		args := make([]any, len(m.Args))
		for i, v := range m.Args {
			args[i] = v
		}
		res, err := st.QueryContext(req.ctx, args...)
		if err != nil {
			c.writeErr(req.reqID, err)
			return
		}
		c.wc.Write(req.reqID, wire.Result{
			Affected: int64(res.Affected),
			Columns:  res.Columns,
			Rows:     res.Rows,
		})
	case wire.CloseStmt:
		st, ok := c.stmts[m.StmtID]
		if !ok {
			c.writeErr(req.reqID, fmt.Errorf("%w: statement id %d", mdm.ErrBadStmt, m.StmtID))
			return
		}
		st.Close()
		delete(c.stmts, m.StmtID)
		c.wc.Write(req.reqID, wire.OK{})
	}
}

// execResultFrame converts a session result for the wire.  DDL ships
// its schema messages as text; QUEL ships structured rows the client
// renders locally.
func execResultFrame(res mdm.ExecResult) wire.Result {
	if res.DDL {
		return wire.Result{DDL: true, Output: res.Output}
	}
	if res.Result == nil {
		return wire.Result{}
	}
	return wire.Result{
		Affected: int64(res.Result.Affected),
		Columns:  res.Result.Columns,
		Rows:     res.Result.Rows,
	}
}
