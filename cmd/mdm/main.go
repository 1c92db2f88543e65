// Command mdm is an interactive shell for the music data manager: a
// client of figure 1 speaking its one language, the DDL of §5.4 (define
// entity / relationship / ordering / index, drop index) and the
// extended QUEL of §5.6 (range, retrieve, append, replace, delete,
// explain).
//
// Usage:
//
//	mdm [-dir DIR] [-metrics ADDR] [-e STATEMENTS]
//
// With -e the statements are executed and the program exits; otherwise
// an interactive prompt reads statements terminated by \g (go) on a
// line of their own or by a blank line, in the INGRES tradition.  One
// input may mix definitions and QUEL, with -- comments anywhere: a
// statement sees the types defined before it, and a statement that
// loses a lock wait is retried on its own, never with the ones before
// it.  The output is the last QUEL statement's result, or the
// definitions' confirmations when there is no QUEL statement.
// Ctrl-C cancels the statement currently executing (including one
// blocked on a lock) without leaving the shell.  With -metrics the
// observability snapshot is served as JSON on ADDR (e.g. :6060).
//
// Meta-commands: \schema lists the schema, \status reports store health
// (degraded read-only mode) with the store's statement, retry and
// commit counts, read from the metrics registry, \stats dumps the metrics
// registry, \trace on|off toggles engine event tracing (events print
// after each statement), \figure N prints a paper figure, \quit exits.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"repro/internal/figuregen"
	"repro/internal/mdm"
	"repro/internal/obs"
)

func main() {
	dir := flag.String("dir", "", "database directory (empty: in-memory)")
	exec := flag.String("e", "", "execute statements and exit")
	metrics := flag.String("metrics", "", "serve the metrics snapshot as JSON on this address")
	flag.Parse()

	m, err := mdm.Open(mdm.Options{Dir: *dir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdm: %v\n", err)
		os.Exit(1)
	}
	defer m.Close()
	session := m.NewSession()

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/mdm/metrics", m.Obs().Handler())
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintf(os.Stderr, "mdm: metrics endpoint: %v\n", err)
			}
		}()
	}

	if *exec != "" {
		res, err := session.ExecContext(context.Background(), *exec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdm: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.Text())
		return
	}

	// Ctrl-C cancels the running statement rather than killing the
	// shell; at the prompt it is ignored (use \quit).
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)
	defer signal.Stop(sigCh)

	trace := m.Obs().Trace()
	lastSeq := trace.LastSeq()
	runStmt := func(stmt string) {
		// Drop any interrupt delivered while idle so it doesn't
		// cancel this statement spuriously.
		select {
		case <-sigCh:
		default:
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			select {
			case <-sigCh:
				cancel()
			case <-done:
			}
		}()
		res, err := session.ExecContext(ctx, stmt)
		close(done)
		cancel()
		switch {
		case errors.Is(err, mdm.ErrCanceled):
			fmt.Println("canceled")
		case err != nil:
			fmt.Printf("error: %v\n", err)
		default:
			if out := res.Text(); out != "" {
				fmt.Println(out)
			}
		}
		if trace.Enabled() {
			for _, e := range trace.Events(lastSeq) {
				fmt.Println(e)
			}
			lastSeq = trace.LastSeq()
		}
	}

	fmt.Println("music data manager — define / drop index / range / retrieve / append / replace / delete / explain")
	fmt.Println(`end statements with a blank line; \schema, \status, \stats, \trace on|off, \figure N, \quit`)
	sc := bufio.NewScanner(os.Stdin)
	var buf strings.Builder
	prompt := func() { fmt.Print("mdm> ") }
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == `\quit` || trimmed == `\q`:
			return
		case trimmed == `\schema`:
			printSchema(m)
			prompt()
			continue
		case trimmed == `\status`:
			printStatus(m)
			prompt()
			continue
		case trimmed == `\stats`:
			printStats(m.Obs())
			prompt()
			continue
		case strings.HasPrefix(trimmed, `\trace`):
			switch strings.TrimSpace(strings.TrimPrefix(trimmed, `\trace`)) {
			case "on":
				lastSeq = trace.LastSeq()
				trace.SetEnabled(true)
				fmt.Println("tracing on: engine events print after each statement")
			case "off":
				trace.SetEnabled(false)
				fmt.Println("tracing off")
			default:
				fmt.Println("usage: \\trace on|off")
			}
			prompt()
			continue
		case strings.HasPrefix(trimmed, `\figure`):
			arg := strings.TrimSpace(strings.TrimPrefix(trimmed, `\figure`))
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 || n > 15 {
				fmt.Println("usage: \\figure N  (1-15)")
			} else if out, err := figuregen.All()[n](); err != nil {
				fmt.Printf("error: %v\n", err)
			} else {
				fmt.Print(out)
			}
			prompt()
			continue
		case trimmed == "" || trimmed == `\g`:
			stmt := strings.TrimSpace(buf.String())
			buf.Reset()
			if stmt != "" {
				runStmt(stmt)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
	}
}

// printStatus reports store health and the store's statement and
// retry counts from the metrics registry, so a degraded database
// explains itself instead of failing opaquely.
func printStatus(m *mdm.MDM) {
	if h := m.Health(); h.ReadOnly {
		fmt.Printf("store:      DEGRADED (read-only): %v\n", h.Cause)
		fmt.Println("            reads keep working; restart to recover from disk")
	} else {
		fmt.Println("store:      healthy (read-write)")
	}
	reg := m.Obs()
	count := func(name string) uint64 {
		c, _ := reg.Get(name)
		return c.Value
	}
	fmt.Printf("statements: %d\n", count("mdm.statements"))
	fmt.Printf("retries:    %d transactions re-run after deadlock/timeout\n", count("storage.txn.retries"))
	if n := count("storage.txn.exhausted"); n > 0 {
		fmt.Printf("exhausted:  %d transactions failed after all retry attempts\n", n)
	}
	if n := count("mdm.canceled"); n > 0 {
		fmt.Printf("canceled:   %d statements aborted by cancellation\n", n)
	}
	fmt.Printf("commits:    %d (%d aborted)\n", count("storage.txn.commit"), count("storage.txn.abort"))
	if h, ok := reg.Get("wal.fsync.ns"); ok && h.Count > 0 {
		fmt.Printf("wal fsyncs: %d (p99 %s)\n", h.Count, nsString(h.P99))
	}
}

// wellKnownCounters are counters every healthy store is expected to
// carry.  \stats prints them as 0 when a configuration leaves them
// unregistered (e.g. serial commits never register wal.group.*), so
// their absence reads as "nothing happened" instead of a missing line.
var wellKnownCounters = []string{
	"snap.reads",
	"snap.gc.reclaimed",
	"storage.ckpt.auto",
	"storage.ckpt.bytes",
	"storage.ckpt.relations",
	"storage.ckpt.segments.skipped",
	"storage.ckpt.segments.written",
	"storage.txn.commit",
	"storage.txn.abort",
	"wal.group.batches",
	"wal.group.txns",
}

// printStats dumps the metrics registry: counters as name=value,
// histograms with count and quantiles.  Well-known counters print as 0
// rather than being omitted when unregistered.
func printStats(reg *obs.Registry) {
	snap := reg.Snapshot()
	have := make(map[string]bool, len(snap))
	for _, m := range snap {
		have[m.Name] = true
	}
	for _, name := range wellKnownCounters {
		if !have[name] {
			snap = append(snap, obs.Metric{Name: name, Kind: "counter"})
		}
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name })
	w := 0
	for _, m := range snap {
		if len(m.Name) > w {
			w = len(m.Name)
		}
	}
	for _, m := range snap {
		switch m.Kind {
		case "counter":
			fmt.Printf("%-*s  %d\n", w, m.Name, m.Value)
		case "histogram":
			human := func(v int64) string {
				if strings.HasSuffix(m.Name, ".ns") {
					return nsString(v)
				}
				return strconv.FormatInt(v, 10)
			}
			fmt.Printf("%-*s  count=%d p50=%s p99=%s min=%s max=%s\n",
				w, m.Name, m.Count, human(m.P50), human(m.P99), human(m.Min), human(m.Max))
		}
	}
}

// nsString renders a nanosecond quantity at a human scale.
func nsString(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

func printSchema(m *mdm.MDM) {
	fmt.Println("entity types:")
	for _, name := range m.Model.EntityTypes() {
		et, _ := m.Model.EntityType(name)
		attrs := make([]string, len(et.Attrs))
		for i, a := range et.Attrs {
			attrs[i] = fmt.Sprintf("%s = %s", a.Name, a.Kind)
		}
		fmt.Printf("  %s (%s)\n", name, strings.Join(attrs, ", "))
	}
	fmt.Println("relationships:")
	for _, name := range m.Model.RelationshipTypes() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println("orderings:")
	for _, name := range m.Model.Orderings() {
		o, _ := m.Model.OrderingByName(name)
		fmt.Printf("  %s (%s) under %s\n", name, strings.Join(o.Children, ", "), o.Parent)
	}
}
