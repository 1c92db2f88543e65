package quel

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/value"
)

// redactTimes replaces wall-clock fields so plan output is comparable
// across runs.
var timeRE = regexp.MustCompile(`time=[^)]+`)

func planLines(t *testing.T, s *Session, src string) []string {
	t.Helper()
	res := mustExec(t, s, src)
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("columns = %v", res.Columns)
	}
	var lines []string
	for _, row := range res.Rows {
		lines = append(lines, timeRE.ReplaceAllString(row[0].String(), "time=X"))
	}
	return lines
}

func TestExplainSingleScan(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	got := planLines(t, s, `explain retrieve (NOTE.name) where NOTE.pitch > 61`)
	want := []string{
		`Retrieve (rows=3) (time=X)`,
		`  Filter: (NOTE.pitch > 61) (in=3, out=3)`,
		`    Scan NOTE on NOTE (est=5, scanned=5, kept=3) (time=X)`,
		`      Sarg: NOTE.pitch > 61`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainOrderOpJoin(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	mustExec(t, s, `range of n1, n2 is NOTE`)
	got := planLines(t, s,
		`explain retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 3`)
	// The planner streams n2 first (its sarg leaves one binding) and
	// never scans n1: the ordering's sibling range names n1's two
	// candidates, each fetched by key, and only they reach the
	// qualification.
	want := []string{
		`Retrieve (rows=2) (time=X)`,
		`  Filter: ((n1 before n2 in note_in_chord) and (n2.name = 3)) (in=2, out=2)`,
		`    OrderOps: 2 evals (time=X)`,
		`    OrderFetch (n1 before n2 in note_in_chord) (est=1, probes=1, fetched=2, kept=2)`,
		`      Scan n2 on NOTE (est=5, scanned=5, kept=1, streamed) (time=X)`,
		`        Sarg: n2.name = 3`,
		`      Fetch n1 on NOTE using by_ref`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainUnderUniqueSort(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	got := planLines(t, s,
		`explain retrieve unique (NOTE.pitch) where NOTE under CHORD sort by pitch`)
	if !strings.Contains(got[0], "Retrieve Unique (rows=5)") {
		t.Fatalf("root: %s", got[0])
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{"Sort: pitch", "Unique (dropped=0)", "under", "OrderOps: 5 evals",
		"OrderFetch (NOTE under CHORD in note_in_chord) (est=5, probes=1, fetched=5, kept=5)",
		"Scan CHORD on CHORD (est=1, scanned=1, kept=1, streamed)", "Fetch NOTE on NOTE using by_ref"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("plan missing %q:\n%s", want, joined)
		}
	}
}

// TestExplainScoreQueryShapes pins the plan of each statement shape the
// score-query benchmark issues, on its schema (NOTE indexed on name and
// pitch, SCORE on name) at 3 scores of 4 notes.  The ordering operators
// read only their partners' rows: before/after/under stream the one
// bounded row and fetch its siblings or children by key; the join
// streams the NOTE heap through a hash table built on the two SCOREs.
func TestExplainScoreQueryShapes(t *testing.T) {
	db, s := newSession(t)
	buildScores(t, db, 3, 4)
	if _, err := NewSession(db).Exec(`define index on SCORE (name)`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "range of n, n1, n2 is NOTE\nrange of s is SCORE")
	for _, tc := range []struct {
		src  string
		want []string
	}{{
		`explain retrieve (n1.name) where n1 before n2 in note_in_score and n2.name = 6`,
		[]string{
			`Retrieve (rows=2) (time=X)`,
			`  Filter: ((n1 before n2 in note_in_score) and (n2.name = 6)) (in=2, out=2)`,
			`    OrderOps: 2 evals (time=X)`,
			`    OrderFetch (n1 before n2 in note_in_score) (est=2, probes=1, fetched=2, kept=2)`,
			`      IndexScan n2 on NOTE using ix_note_name [name = 6] (est=1, scanned=1, kept=1, streamed) (time=X)`,
			`        Sarg: n2.name = 6`,
			`      Fetch n1 on NOTE using by_ref`,
		},
	}, {
		`explain retrieve (n1.name) where n1 after n2 in note_in_score and n2.name = 6`,
		[]string{
			`Retrieve (rows=1) (time=X)`,
			`  Filter: ((n1 after n2 in note_in_score) and (n2.name = 6)) (in=1, out=1)`,
			`    OrderOps: 1 evals (time=X)`,
			`    OrderFetch (n1 after n2 in note_in_score) (est=2, probes=1, fetched=1, kept=1)`,
			`      IndexScan n2 on NOTE using ix_note_name [name = 6] (est=1, scanned=1, kept=1, streamed) (time=X)`,
			`        Sarg: n2.name = 6`,
			`      Fetch n1 on NOTE using by_ref`,
		},
	}, {
		`explain retrieve (n.name) where n under s in note_in_score and s.name = 1`,
		[]string{
			`Retrieve (rows=4) (time=X)`,
			`  Filter: ((n under s in note_in_score) and (s.name = 1)) (in=4, out=4)`,
			`    OrderOps: 4 evals (time=X)`,
			`    OrderFetch (n under s in note_in_score) (est=4, probes=1, fetched=4, kept=4)`,
			`      IndexScan s on SCORE using ix_score_name [name = 1] (est=1, scanned=1, kept=1, streamed) (time=X)`,
			`        Sarg: s.name = 1`,
			`      Fetch n on NOTE using by_ref`,
		},
	}, {
		`explain retrieve (n.name, s.name) where n.score = s.name and s.name >= 0 and s.name < 2`,
		[]string{
			`Retrieve (rows=8) (time=X)`,
			`  Filter: (((n.score = s.name) and (s.name >= 0)) and (s.name < 2)) (in=8, out=8)`,
			`    HashJoin (n.score = s.name) (est=12, build=2, probes=8, hits=8)`,
			`      Scan n on NOTE (est=12, scanned=12, kept=8, streamed) (time=X)`,
			`        Sarg: n.score >= 0 (derived) and n.score < 2 (derived)`,
			`      IndexScan s on SCORE using ix_score_name [name >= 0 and name < 2] (est=2, scanned=2, kept=2) (time=X)`,
			`        Sarg: s.name >= 0 and s.name < 2`,
		},
	}, {
		`explain retrieve (p = n.pitch, n.name) where n.pitch >= 43 and n.pitch < 44 sort by p`,
		[]string{
			`Retrieve (rows=1) (time=X)`,
			`  Sort: p (satisfied by IndexScan ix_note_pitch)`,
			`    Filter: ((n.pitch >= 43) and (n.pitch < 44)) (in=1, out=1)`,
			`      IndexScan n on NOTE using ix_note_pitch [pitch >= 43 and pitch < 44] (est=1, scanned=1, kept=1) (time=X)`,
			`        Sarg: n.pitch >= 43 and n.pitch < 44`,
		},
	}, {
		`explain retrieve (n.pitch) where n.name = 7`,
		[]string{
			`Retrieve (rows=1) (time=X)`,
			`  Filter: (n.name = 7) (in=1, out=1)`,
			`    IndexScan n on NOTE using ix_note_name [name = 7] (est=1, scanned=1, kept=1) (time=X)`,
			`      Sarg: n.name = 7`,
		},
	}} {
		got := planLines(t, s, tc.src)
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s\nplan:\n%s\nwant:\n%s", tc.src, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}

func TestExplainOnlyRetrieve(t *testing.T) {
	_, s := newSession(t)
	if _, err := s.Exec(`explain delete n`); err == nil ||
		!strings.Contains(err.Error(), "only retrieve") {
		t.Fatalf("err = %v", err)
	}
	if _, err := Parse(`explain explain retrieve (n.name)`); err == nil {
		t.Fatal("nested explain accepted")
	}
}

func TestParseErrSentinel(t *testing.T) {
	_, err := Parse(`retrieve n.name`)
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v, want ErrParse", err)
	}
}

// TestExplainRunsQuery proves explain executes (actual counts come from
// a real run, per the "estimated vs. actual" contract) without emitting
// the query's own rows.
func TestExplainRunsQuery(t *testing.T) {
	db, s := newSession(t)
	setupChords(t, db)
	got := planLines(t, s, `explain retrieve (NOTE.name)`)
	if !strings.Contains(got[len(got)-1], "scanned=5") {
		t.Fatalf("expected actual scan counts, got:\n%s", strings.Join(got, "\n"))
	}
}

// setupWriters builds the catalogue's Writer–Work shape at test size:
// WORK(number), WRITER(number) and a many-to-many WROTE(writer, work,
// role), each indexed on its lookup key.  Works 1..10; writers 1..3;
// every work has a composer and an arranger.
func setupWriters(t *testing.T, db *model.Database) {
	t.Helper()
	if _, err := NewSession(db).Exec(`
define entity WORK (number = integer, title = string)
define entity WRITER (number = integer, name = string)
define entity WROTE (writer = integer, work = integer, role = string)
define index on WORK (number)
define index on WRITER (number)
define index on WROTE (writer)
`); err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 3; w++ {
		if _, err := db.NewEntity("WRITER", model.Attrs{"number": value.Int(int64(w)), "name": value.Str(fmt.Sprintf("writer %d", w))}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= 10; n++ {
		if _, err := db.NewEntity("WORK", model.Attrs{"number": value.Int(int64(n)), "title": value.Str(fmt.Sprintf("work %d", n))}); err != nil {
			t.Fatal(err)
		}
		for i, role := range []string{"composer", "arranger"} {
			if _, err := db.NewEntity("WROTE", model.Attrs{"writer": value.Int(int64((n+i)%3 + 1)),
				"work": value.Int(int64(n)), "role": value.Str(role)}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExplainIndexFetch pins the plan of the catalogue's by-writer
// statement: the writer is one index row, and the wrote rows and works
// are each read from their lookup index per joined row — no heap scan.
func TestExplainIndexFetch(t *testing.T) {
	db, s := newSession(t)
	setupWriters(t, db)
	mustExec(t, s, "range of e is WORK\nrange of w is WROTE\nrange of a is WRITER")
	got := planLines(t, s,
		`explain retrieve (a.name, w.role, e.number) where a.number = 2 and w.writer = a.number and e.number = w.work`)
	assertPlan(t, got, []string{
		`Retrieve (rows=7) (time=X)`,
		`  Filter: (((a.number = 2) and (w.writer = a.number)) and (e.number = w.work)) (in=7, out=7)`,
		`    IndexFetch (e.number = w.work) using ix_work_number (est=6, probes=7, fetched=7, kept=7)`,
		`      IndexFetch (w.writer = a.number) using ix_wrote_writer (est=6, probes=1, fetched=7, kept=7)`,
		`        IndexScan a on WRITER using ix_writer_number [number = 2] (est=1, scanned=1, kept=1, streamed) (time=X)`,
		`          Sarg: a.number = 2`,
		`        Fetch w on WROTE using ix_wrote_writer`,
		`      Fetch e on WORK using ix_work_number`,
	})
}

// TestExplainIndexFetchRolesAndIdentity pins the §5.6 is-operator query:
// the relationship is read through its role index per composition, and
// each composer by identity through by_ref.
func TestExplainIndexFetchRolesAndIdentity(t *testing.T) {
	db, s := newSession(t)
	if _, err := NewSession(db).Exec(`
define entity PERSON (name = string)
define entity COMPOSITION (title = string)
define relationship COMPOSER (composer = PERSON, composition = COMPOSITION)
`); err != nil {
		t.Fatal(err)
	}
	var people, works []value.Ref
	for i := 0; i < 20; i++ {
		p, _ := db.NewEntity("PERSON", model.Attrs{"name": value.Str(fmt.Sprintf("person %d", i))})
		c, _ := db.NewEntity("COMPOSITION", model.Attrs{"title": value.Str(fmt.Sprintf("title %d", i))})
		people, works = append(people, p), append(works, c)
	}
	for i := range works {
		for _, p := range []value.Ref{people[i], people[(i+1)%len(people)]} {
			if err := db.Relate("COMPOSER", map[string]value.Ref{"composer": p, "composition": works[i]}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := planLines(t, s, `explain retrieve (PERSON.name) where COMPOSITION.title = "title 3"
  and COMPOSER.composition is COMPOSITION and COMPOSER.composer is PERSON`)
	assertPlan(t, got[2:], []string{
		`    IndexFetch (COMPOSER.composer is PERSON) using by_ref (est=4, probes=2, fetched=2, kept=2)`,
		`      IndexFetch (COMPOSER.composition is COMPOSITION) using by_composition (est=4, probes=1, fetched=2, kept=2)`,
		`        Scan COMPOSITION on COMPOSITION (est=20, scanned=20, kept=1, streamed) (time=X)`,
		`          Sarg: COMPOSITION.title = title 3`,
		`        Fetch COMPOSER on COMPOSER using by_composition`,
		`      Fetch PERSON on PERSON using by_ref`,
	})
}

// TestExplainScoreQueryJoinStaysHash: the score-query join has no index
// on NOTE(score), and fetching a SCORE per NOTE row would cost one probe
// per note against a two-row range, so it stays a hash join over the
// streamed NOTE heap — which the range on s.name, carried across the
// join, filters before any note reaches the probe.
func TestExplainScoreQueryJoinStaysHash(t *testing.T) {
	db, s := newSession(t)
	buildScores(t, db, 40, 50)
	if _, err := NewSession(db).Exec(`define index on SCORE (name)`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "range of n is NOTE\nrange of s is SCORE")
	got := planLines(t, s, `explain retrieve (n.name, s.name) where n.score = s.name and s.name >= 10 and s.name < 12`)
	assertPlan(t, got[2:], []string{
		`    HashJoin (n.score = s.name) (est=20, build=2, probes=100, hits=100)`,
		`      Scan n on NOTE (est=2000, scanned=512, kept=100, pages=2/8, streamed) (time=X)`,
		`        Sarg: n.score >= 10 (derived) and n.score < 12 (derived)`,
		`      IndexScan s on SCORE using ix_score_name [name >= 10 and name < 12] (est=2, scanned=2, kept=2) (time=X)`,
		`        Sarg: s.name >= 10 and s.name < 12`,
	})
}
