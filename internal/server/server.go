// Package server exposes a music data manager over the network: a TCP
// front end speaking the framed binary protocol of internal/wire, with
// one mdm session per connection, server-side prepared statements, and
// admission control that sheds load past a configured concurrency
// instead of collapsing.
//
// The paper's figure-1 architecture — one shared database back end,
// many music clients — assumed terminals on a timesharing machine;
// this package is the same architecture across a socket.  Group commit
// (one fsync per concurrent batch) and MVCC snapshot reads (lock-free
// retrieves) were built for exactly the concurrency profile a network
// front end produces; the catalogue workloads of bench/ measure them
// through it.
package server

import (
	"context"
	"crypto/subtle"
	"crypto/tls"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/mdm"
	"repro/internal/obs"
)

// Options configure a Server.
type Options struct {
	// MaxSessions caps concurrently executing statements (the execution
	// slot pool).  Zero defaults to 64.
	MaxSessions int
	// MaxQueue caps statements waiting for a slot; a request arriving
	// with the queue full is shed immediately.  Zero defaults to
	// 4*MaxSessions.
	MaxQueue int
	// QueueTimeout bounds how long a queued statement waits for a slot
	// before being shed.  Zero defaults to 1s.
	QueueTimeout time.Duration
	// AuthToken, when set, is a shared static token every client must
	// present in its Hello; a wrong or missing token is refused with
	// mdm.ErrAuth.
	AuthToken string
	// TLS, when set, wraps every accepted connection; the config is
	// applied verbatim, so certificates come from the caller (cmd/mdmd
	// loads them from -tls-cert/-tls-key).
	TLS *tls.Config
	// DrainGrace bounds how long Shutdown waits for in-flight statements
	// before giving up.  Zero defaults to 10s.
	DrainGrace time.Duration
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxSessions <= 0 {
		out.MaxSessions = 64
	}
	if out.MaxQueue <= 0 {
		out.MaxQueue = 4 * out.MaxSessions
	}
	if out.QueueTimeout <= 0 {
		out.QueueTimeout = time.Second
	}
	if out.DrainGrace <= 0 {
		out.DrainGrace = 10 * time.Second
	}
	return out
}

// serverObs holds the server's metric handles (all nil-safe).
type serverObs struct {
	connsTotal  *obs.Counter   // server.conns.total
	connsActive *obs.Gauge     // server.conns.active
	frameNS     *obs.Histogram // server.frame.ns
	prepared    *obs.Counter   // server.stmts.prepared
	cancels     *obs.Counter   // server.cancels.delivered
}

// Server accepts connections and serves the wire protocol over one MDM.
type Server struct {
	m    *mdm.MDM
	opts Options
	gate *gate
	obs  serverObs

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool

	wg         sync.WaitGroup
	metricsSrv *http.Server
}

// New builds a server over an open manager.  The manager's lifecycle
// stays with the caller: Shutdown drains connections but does not close
// the MDM.
func New(m *mdm.MDM, opts Options) *Server {
	opts = opts.withDefaults()
	reg := m.Obs()
	s := &Server{
		m:     m,
		opts:  opts,
		gate:  newGate(opts.MaxSessions, opts.MaxQueue, opts.QueueTimeout, reg),
		conns: make(map[*conn]struct{}),
		obs: serverObs{
			connsTotal:  reg.Counter("server.conns.total"),
			connsActive: reg.Gauge("server.conns.active"),
			frameNS:     reg.Histogram("server.frame.ns"),
			prepared:    reg.Counter("server.stmts.prepared"),
			cancels:     reg.Counter("server.cancels.delivered"),
		},
	}
	return s
}

// Start listens on addr (TCP, e.g. ":7474" or "127.0.0.1:0") and begins
// accepting connections on a background goroutine.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if s.opts.TLS != nil {
		ln = tls.NewListener(ln, s.opts.TLS)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return mdm.ErrShutdown
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ServeMetrics serves the manager's observability snapshot as JSON at
// /metrics on addr, on a background goroutine.
func (s *Server) ServeMetrics(addr string) error {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.m.Obs().Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	s.mu.Lock()
	s.metricsSrv = srv
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln)
	}()
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal accept error
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.obs.connsTotal.Inc()
		s.obs.connsActive.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.obs.connsActive.Dec()
		}()
	}
}

// Shutdown drains the server: the listener closes, idle connections are
// closed immediately, and in-flight statements run to completion — an
// acknowledged commit is never abandoned mid-drain.  Statements that
// arrive while draining are refused with mdm.ErrShutdown.  Shutdown
// returns once every connection has unwound or ctx/DrainGrace expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	msrv := s.metricsSrv
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.drain()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.DrainGrace)
		defer cancel()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: sever what remains so wg can unwind.
		s.mu.Lock()
		for c := range s.conns {
			c.hardClose()
		}
		s.mu.Unlock()
		err = fmt.Errorf("mdm server: drain grace expired: %w", ctx.Err())
		<-done
	}
	if msrv != nil {
		msrv.Close()
	}
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// authOK checks the Hello token against the configured one.
func (s *Server) authOK(token string) bool {
	if s.opts.AuthToken == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(token), []byte(s.opts.AuthToken)) == 1
}
