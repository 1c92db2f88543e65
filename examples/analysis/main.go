// Analysis: the music-analysis client of §2.  Imports the BWV 578 fugue
// subject from DARMS, then performs melodic analysis over the database:
// interval histogram, contour, motif search, and QUEL aggregates over
// the score.
//
//	go run ./examples/analysis
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cmn"
	"repro/internal/darms"
	"repro/internal/demo"
	"repro/internal/mdm"
	"repro/internal/pianoroll"
)

func main() {
	m, err := mdm.Open(mdm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	items, err := darms.Parse(demo.FugueSubjectDARMS)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := darms.ToScore(m.Music, items, "Fuge g-moll (subject)"); err != nil {
		log.Fatal(err)
	}
	scores, err := m.Music.Scores()
	if err != nil || len(scores) == 0 {
		log.Fatal("no score imported")
	}
	voice, _, err := demo.SoloHandles(m.Music, scores[0])
	if err != nil {
		log.Fatal(err)
	}
	notes, err := voice.PerformedNotes()
	if err != nil {
		log.Fatal(err)
	}

	// Melodic line and interval sequence.
	fmt.Print("subject: ")
	pitches := make([]int, len(notes))
	for i, n := range notes {
		pitches[i] = n.Pitch
		fmt.Printf("%s ", pianoroll.KeyName(n.Pitch))
	}
	fmt.Println()
	intervals := make([]int, 0, len(pitches)-1)
	for i := 1; i < len(pitches); i++ {
		intervals = append(intervals, pitches[i]-pitches[i-1])
	}
	fmt.Printf("intervals (semitones): %v\n", intervals)

	// Interval histogram — the kind of statistic harmonic-analysis
	// systems compute.
	hist := map[int]int{}
	for _, iv := range intervals {
		hist[iv]++
	}
	fmt.Println("interval histogram:")
	for iv := -12; iv <= 12; iv++ {
		if c := hist[iv]; c > 0 {
			fmt.Printf("  %+3d: %s\n", iv, strings.Repeat("■", c))
		}
	}

	// Contour string (U up, D down, R repeat).
	var contour strings.Builder
	for _, iv := range intervals {
		switch {
		case iv > 0:
			contour.WriteByte('U')
		case iv < 0:
			contour.WriteByte('D')
		default:
			contour.WriteByte('R')
		}
	}
	fmt.Printf("contour: %s\n", contour.String())

	// Motif search: where does the descending-second pair [-1,-2] or
	// [-2,-1] (step descent) occur?
	fmt.Print("stepwise descents at note indexes: ")
	for i := 0; i+1 < len(intervals); i++ {
		a, b := intervals[i], intervals[i+1]
		if a < 0 && a >= -2 && b < 0 && b >= -2 {
			fmt.Printf("%d ", i)
		}
	}
	fmt.Println()

	// QUEL aggregates over the stored score.
	s := m.NewSession()
	res, err := s.QueryContext(context.Background(), `
range of n is NOTE
retrieve (notes = count(n.all), lowest = min(n.midi_pitch), highest = max(n.midi_pitch),
          mean = avg(n.midi_pitch))`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nscore statistics (via QUEL):")
	fmt.Println(res)

	// Ambitus check through the ordering operators: the first and last
	// chords of the voice.
	content, err := voice.Content()
	if err != nil {
		log.Fatal(err)
	}
	total := cmn.Zero
	for _, it := range content {
		total = total.Add(it.Duration)
	}
	fmt.Printf("voice has %d content items (chords and rests) spanning %s beats\n",
		len(content), total)

	// A two-voice exposition: subject then answer at the dominant.  The
	// analysis package (the §2 analysis client) estimates its key and
	// finds the subject's head motif in both voices.
	score2, voices, err := demo.LoadExposition(m.Music)
	if err != nil {
		log.Fatal(err)
	}
	key, err := analysis.EstimateKey(voices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexposition %q: estimated key %s (r=%.2f)\n", score2.Title(), key, key.Score)
	for vi, v := range voices {
		hits, err := analysis.FindMotif(v, []int{7, -4})
		if err != nil {
			log.Fatal(err)
		}
		for _, h := range hits {
			fmt.Printf("  subject head in voice %d at beat %s (starting on %s)\n",
				vi+1, h.Onset, pianoroll.KeyName(h.Transposed))
		}
	}
	movements, _ := score2.Movements()
	report, err := analysis.ProgressionReport(movements[0], voices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("first sonorities:")
	for i, line := range report {
		if i >= 4 {
			break
		}
		fmt.Println(" ", line)
	}
}
