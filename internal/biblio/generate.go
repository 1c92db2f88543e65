package biblio

import (
	"fmt"
	"math/rand"

	"repro/internal/value"
)

// SyntheticEntry deterministically generates one synthetic catalogue
// entry for the million-work workload of §1: the paper sizes a national
// thematic catalogue at about a million works, and the ingest benchmark
// needs that shape without a million real incipits.  The same (seed,
// number) always yields the same entry, so generation can be batched,
// restarted and compared across runs.
//
// The incipit is a bounded random walk of 8–16 notes over the staff
// range — enough intervals that every entry lands in the gram index,
// with a pitch distribution that keeps individual grams selective.
func SyntheticEntry(seed int64, number int) Entry {
	rng := rand.New(rand.NewSource(seed ^ int64(number)*0x5851F42D4C957F2D))
	n := 8 + rng.Intn(9)
	incipit := make([]IncipitNote, n)
	pitch := 55 + rng.Intn(25) // G3..G5 start
	for i := 0; i < n; i++ {
		if i > 0 {
			pitch += rng.Intn(13) - 6 // steps of -6..+6 semitones
			if pitch < 43 {
				pitch = 43
			}
			if pitch > 91 {
				pitch = 91
			}
		}
		den := int64(1 << rng.Intn(3)) // whole, half, quarter of a beat
		incipit[i] = IncipitNote{MIDIPitch: pitch, DurNum: 1, DurDen: den}
	}
	return Entry{
		Number:       number,
		Title:        fmt.Sprintf("Sinfonia %d", number),
		Setting:      []string{"Orgel", "Cembalo", "Streicher", "Bläser"}[rng.Intn(4)],
		ComposedWhen: fmt.Sprintf("%d", 1700+rng.Intn(80)),
		Measures:     24 + rng.Intn(200),
		Incipit:      incipit,
	}
}

// GenerateWorks bulk-loads n synthetic entries numbered [start, start+n)
// into a catalogue, batchSize entries per transaction, and returns the
// number loaded.  It is the catalogue-scale workload generator behind
// `mdmload -synthetic`.
func (ix *Index) GenerateWorks(catalog value.Ref, seed int64, start, n, batchSize int) (int, error) {
	if batchSize <= 0 {
		batchSize = 256
	}
	loaded := 0
	for loaded < n {
		b := batchSize
		if rem := n - loaded; rem < b {
			b = rem
		}
		batch := make([]Entry, b)
		for i := range batch {
			batch[i] = SyntheticEntry(seed, start+loaded+i)
		}
		if _, err := ix.AddEntries(catalog, batch); err != nil {
			return loaded, err
		}
		loaded += b
	}
	return loaded, nil
}
