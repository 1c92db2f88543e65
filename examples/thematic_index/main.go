// Thematic index: the score-library client of §2 and §4.2.  Builds a
// BWV-style catalogue, renders figure 2's entry, and runs identifier and
// incipit (melodic) searches.
//
//	go run ./examples/thematic_index
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/biblio"
	"repro/internal/mdm"
)

func main() {
	m, err := mdm.Open(mdm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	ix := m.Biblio

	cat, err := ix.NewCatalog("Bach Werke Verzeichnis", "BWV", "chronological")
	if err != nil {
		log.Fatal(err)
	}
	// Figure 2's entry plus neighbours.
	if _, err := ix.AddEntry(cat, biblio.BWV578()); err != nil {
		log.Fatal(err)
	}
	toccata := biblio.Entry{
		Number: 565, Title: "Toccata und Fuge d-moll", Setting: "Orgel",
		ComposedWhen: "um 1704", Measures: 143,
		Incipit: []biblio.IncipitNote{
			{MIDIPitch: 69, DurNum: 1, DurDen: 8}, {MIDIPitch: 67, DurNum: 1, DurDen: 8},
			{MIDIPitch: 69, DurNum: 1, DurDen: 2},
		},
	}
	passacaglia := biblio.Entry{
		Number: 582, Title: "Passacaglia c-moll", Setting: "Orgel",
		ComposedWhen: "um 1710", Measures: 168,
		Incipit: []biblio.IncipitNote{
			{MIDIPitch: 60, DurNum: 1, DurDen: 1}, {MIDIPitch: 67, DurNum: 1, DurDen: 1},
			{MIDIPitch: 63, DurNum: 1, DurDen: 1},
		},
	}
	for _, e := range []biblio.Entry{toccata, passacaglia} {
		if _, err := ix.AddEntry(cat, e); err != nil {
			log.Fatal(err)
		}
	}

	// The figure-2 rendering.
	entry, err := ix.Lookup("BWV", 578)
	if err != nil {
		log.Fatal(err)
	}
	out, err := ix.Render(entry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)

	// Melodic search: the fugue subject's head (up a fifth, down a
	// major third) — transposition-invariant.
	hits, err := ix.SearchIncipit([]int{7, -4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("incipit search for intervals [+7, -4]:")
	for _, h := range hits {
		id, _ := ix.Identifier(h)
		e, _ := ix.Get(h)
		fmt.Printf("  %s — %s\n", id, e.Title)
	}

	// The catalogue is ordinary data: query it through QUEL.
	s := m.NewSession()
	res, err := s.QueryContext(context.Background(), `
range of e is CATALOG_ENTRY
retrieve (e.number, e.title) where e.measures > 100`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nworks longer than 100 measures (via QUEL):")
	fmt.Println(res)
}
