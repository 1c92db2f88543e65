package mdm

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/biblio"
	"repro/internal/darms"
)

func TestOpenInMemory(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// CMN and biblio schemas are up.
	if _, ok := m.Model.EntityType("SCORE"); !ok {
		t.Fatal("CMN schema missing")
	}
	if _, ok := m.Model.EntityType("CATALOG"); !ok {
		t.Fatal("biblio schema missing")
	}
	// Catalog self-describes.
	if _, ok := m.Catalog.EntityRef("ENTITY"); !ok {
		t.Fatal("meta catalog missing")
	}
}

func TestSkipCMN(t *testing.T) {
	m, err := Open(Options{SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, ok := m.Model.EntityType("SCORE"); ok {
		t.Fatal("CMN schema defined despite SkipCMN")
	}
}

func TestSessionDDLAndQUEL(t *testing.T) {
	m, err := Open(Options{SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.NewSession()
	out, err := s.ExecContext(context.Background(), `
define entity COMPOSITION (title = string, year = integer)
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Output, "defined entity COMPOSITION") {
		t.Fatalf("ddl output: %q", out.Output)
	}
	if _, err := s.ExecContext(context.Background(), `append to COMPOSITION (title = "Fuge g-moll", year = 1709)`); err != nil {
		t.Fatal(err)
	}
	out, err = s.ExecContext(context.Background(), `
range of c is COMPOSITION
retrieve (c.title) where c.year = 1709`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Output != "" || !strings.Contains(out.Text(), "Fuge g-moll") {
		t.Fatalf("query output: %q, text %q", out.Output, out.Text())
	}
	// DDL refreshes the meta catalog: the new type is queryable.
	res, err := s.QueryContext(context.Background(), `
range of e is ENTITY
retrieve (e.entity_name) where e.entity_name = "COMPOSITION"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("catalog rows: %v", res.Rows)
	}
	// Errors propagate.
	if _, err := s.ExecContext(context.Background(), "retrieve (nope.x)"); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := s.ExecContext(context.Background(), "define entity COMPOSITION (a = integer)"); err == nil {
		t.Fatal("duplicate entity accepted")
	}
	if out, err := s.ExecContext(context.Background(), "   "); err != nil || out.Output != "" {
		t.Fatal("blank input")
	}
}

// TestSessionMixedSource: one source may hold definitions and QUEL in
// any order, with comments anywhere.  A QUEL statement after a
// definition sees the new type and its §6.1 meta-entity; the result is
// the last QUEL statement's, and a source of definitions alone returns
// their confirmations.
func TestSessionMixedSource(t *testing.T) {
	m, err := Open(Options{SkipCMN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.NewSession()
	ctx := context.Background()
	out, err := s.ExecContext(ctx, "define entity X (a = integer)\nappend to X (a = 1)")
	if err != nil || out.DDL || out.Result == nil || out.Result.Affected != 1 || out.Output != "defined entity X with 1 attributes" {
		t.Errorf("define then append: %+v, %v", out, err)
	}
	out, err = s.ExecContext(ctx, "-- schema\ndefine entity Y (b = integer)\n-- and an index\ndefine index on Y (b)")
	if err != nil || !out.DDL || out.Result != nil || out.Text() != "defined entity Y with 1 attributes\ndefined index ix_y_b on Y" {
		t.Errorf("definitions after a comment: %+v, %v", out, err)
	}
	res, err := s.QueryContext(ctx, `define entity Z (c = string)
range of e is ENTITY
retrieve (e.entity_name) where e.entity_name = "Z"`)
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("ENTITY rows for a type defined earlier in the source: %v, %v", res, err)
	}
	if _, err := s.PrepareContext(ctx, "retrieve (X.a)\ndefine entity W (d = integer)"); !errors.Is(err, ErrParse) {
		t.Errorf("prepared a source holding a definition: %v", err)
	}
}

// TestFigure1SharedClients exercises figure 1's architecture: four
// clients of different kinds sharing one MDM concurrently.
func TestFigure1SharedClients(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The editor client imports a score via DARMS.
	items, err := darms.Parse(darms.Figure4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := darms.ToScore(m.Music, items, "Gloria"); err != nil {
		t.Fatal(err)
	}
	// The library client catalogues works.
	cat, err := m.Biblio.NewCatalog("Bach Werke Verzeichnis", "BWV", "chronological")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Biblio.AddEntry(cat, biblio.BWV578()); err != nil {
		t.Fatal(err)
	}

	// Concurrently: an analysis client queries while a composition
	// client appends and a second analyst reads the catalogue.
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() { // analysis client
		defer wg.Done()
		s := m.NewSession()
		for i := 0; i < 20; i++ {
			if _, err := s.QueryContext(context.Background(), `range of n is NOTE retrieve (total = count(n.all))`); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // composition client
		defer wg.Done()
		s := m.NewSession()
		for i := 0; i < 20; i++ {
			if _, err := s.ExecContext(context.Background(), `append to ANNOTATION (kind = "rehearsal", text = "A")`); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // library client
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := m.Biblio.Lookup("BWV", 578); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All clients see consistent state.
	s := m.NewSession()
	res, _ := s.QueryContext(context.Background(), `range of a is ANNOTATION retrieve (total = count(a.all))`)
	if res.Rows[0][0].AsInt() != 21 { // 1 from DARMS + 20 appended
		t.Fatalf("annotations: %v", res.Rows)
	}
}

func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession()
	if _, err := s.ExecContext(context.Background(), `append to SCORE (title = "persisted", catalog_id = "X 1")`); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	res, err := m2.NewSession().QueryContext(context.Background(), `range of s is SCORE retrieve (s.title)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "persisted" {
		t.Fatalf("rows after reopen: %v", res.Rows)
	}
}

func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession()
	if _, err := s.ExecContext(context.Background(), `append to ANNOTATION (kind = "k", text = "t")`); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
