package quel

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/ddl"
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
	if _, err := ddl.Exec(db, `define index on SCORE (name)`); err != nil {
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
			`    HashJoin (n.score = s.name) (est=12, build=2, probes=12, hits=8)`,
			`      Scan n on NOTE (est=12, scanned=12, kept=12, streamed) (time=X)`,
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
