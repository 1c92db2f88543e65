package model

import (
	"fmt"

	"repro/internal/value"
)

// IncipitIndex describes a domain-maintained incipit (theme) index over
// an entity type: an interval n-gram inverted index kept in a companion
// entity type, plus callbacks that let the query planner probe it
// without knowing the gram encoding.  The paper's thematic index
// (Figure 2) is the motivating workload: "find the works whose incipit
// contains this contour" over a million-entry catalogue.
//
// The layer that owns the encoding (internal/biblio) registers the
// index at open time; internal/quel discovers it through the Database
// so the two stay decoupled.
type IncipitIndex struct {
	// EntityType is the type an `incipit` predicate applies to
	// (e.g. CATALOG_ENTRY).
	EntityType string
	// GramType is the companion entity type holding one row per
	// (gram, entry) posting (e.g. INCIPIT_GRAM).
	GramType string
	// GramAttr is the indexed gram attribute on GramType.
	GramAttr string
	// EntryAttr is the attribute on GramType referencing the indexed
	// entity.
	EntryAttr string
	// N is the number of intervals per gram.
	N int
	// Gram maps a query pattern (whose syntax the registering layer
	// owns, e.g. "67 74 70 69" MIDI pitches) to the probe gram key.
	// ok is false when the pattern is too short or malformed; the
	// planner then skips the index and Match reports the problem.
	Gram func(pattern string) (gram string, ok bool)
	// Match reports whether an entity's incipit contains the pattern,
	// reading through v, the calling statement's reader.  It is the
	// authoritative check; the gram probe only narrows candidates.
	Match func(v View, entity value.Ref, pattern string) (bool, error)
}

// RegisterIncipitIndex publishes an incipit index for an entity type.
// It bumps the schema epoch so cached plans built without the index are
// discarded.
func (db *Database) RegisterIncipitIndex(ix IncipitIndex) error {
	if ix.EntityType == "" || ix.Gram == nil || ix.Match == nil {
		return fmt.Errorf("model: incomplete incipit index registration for %q", ix.EntityType)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.entities[ix.EntityType]; !ok {
		return fmt.Errorf("%w: %s", ErrNoEntityType, ix.EntityType)
	}
	if db.incipits == nil {
		db.incipits = make(map[string]IncipitIndex)
	}
	db.incipits[ix.EntityType] = ix
	db.schemaEpoch.Add(1)
	return nil
}

// IncipitIndexFor returns the incipit index registered for an entity
// type, if any.
func (db *Database) IncipitIndexFor(entityType string) (IncipitIndex, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ix, ok := db.incipits[entityType]
	return ix, ok
}
