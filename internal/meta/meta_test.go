package meta

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/quel"
	"repro/internal/storage"
	"repro/internal/value"
)

func newDB(t testing.TB) *model.Database {
	t.Helper()
	store, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := model.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBootstrapSelfDescribes(t *testing.T) {
	db := newDB(t)
	c, err := Bootstrap(db)
	if err != nil {
		t.Fatal(err)
	}
	// The fixpoint: ENTITY is catalogued in ENTITY.
	ref, ok := c.EntityRef(TypeEntity)
	if !ok {
		t.Fatal("ENTITY not catalogued")
	}
	v, err := db.Attr(ref, "entity_name")
	if err != nil || v.AsString() != TypeEntity {
		t.Fatalf("entity_name: %v %v", v, err)
	}
	// ATTRIBUTE's attributes are ordered under ATTRIBUTE's meta-entity.
	attrs, err := c.AttributeRefs(TypeAttribute)
	if err != nil || len(attrs) != 2 {
		t.Fatalf("ATTRIBUTE attrs: %v %v", attrs, err)
	}
	names := make([]string, len(attrs))
	for i, a := range attrs {
		v, _ := db.Attr(a, "attribute_name")
		names[i] = v.AsString()
	}
	if names[0] != "attribute_name" || names[1] != "attribute_type" {
		t.Fatalf("attr order: %v", names)
	}
	// The figure-9 orderings exist and are catalogued as ORDERING rows.
	if _, ok := c.OrderingRef(OrderEntityAttrs); !ok {
		t.Fatal("entity_attributes not catalogued")
	}
}

func TestRefreshAfterDDL(t *testing.T) {
	db := newDB(t)
	c, err := Bootstrap(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quel.NewSession(db).Exec(`
define entity STEM (xpos = integer, ypos = integer, length = integer, direction = integer)
`); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.EntityRef("STEM"); ok {
		t.Fatal("STEM catalogued before refresh")
	}
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	attrs, err := c.AttributeRefs("STEM")
	if err != nil || len(attrs) != 4 {
		t.Fatalf("STEM attrs: %d %v", len(attrs), err)
	}
	// Refresh is idempotent.
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	attrs2, _ := c.AttributeRefs("STEM")
	if len(attrs2) != 4 {
		t.Fatalf("refresh not idempotent: %d", len(attrs2))
	}
}

func TestSchemaQueryableViaQUEL(t *testing.T) {
	// §6's point: clients query the schema like data.
	db := newDB(t)
	c, err := Bootstrap(db)
	if err != nil {
		t.Fatal(err)
	}
	quel.NewSession(db).Exec(`define entity STEM (xpos = integer, ypos = integer, length = integer, direction = integer)`)
	c.Refresh()

	s := quel.NewSession(db)
	res, err := s.Exec(`
range of e is ENTITY
retrieve (e.entity_name) where e.entity_name = "STEM"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// Attribute count via the under operator on entity_attributes.
	res, err = s.Exec(`
range of a is ATTRIBUTE
range of e is ENTITY
retrieve (a.attribute_name)
  where a under e in entity_attributes and e.entity_name = "STEM"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("STEM attributes via QUEL: %v", res.Rows)
	}
	if res.Rows[0][0].AsString() != "xpos" {
		t.Fatalf("first attr: %v", res.Rows[0])
	}
}

func TestGraphDef(t *testing.T) {
	db := newDB(t)
	c, err := Bootstrap(db)
	if err != nil {
		t.Fatal(err)
	}
	quel.NewSession(db).Exec(`define entity STEM (xpos = integer, ypos = integer, length = integer, direction = integer)`)
	c.Refresh()

	const fn = "newpath xpos ypos moveto 0 length direction mul rlineto stroke"
	_, err = c.DefineGraphDef("draw_stem", "STEM", fn, []ParamBinding{
		{Attribute: "xpos", Setup: "/xpos exch def"},
		{Attribute: "ypos", Setup: "/ypos exch def"},
		{Attribute: "length", Setup: "/length exch def"},
		{Attribute: "direction", Setup: "/direction exch def"},
	})
	if err != nil {
		t.Fatal(err)
	}
	gotFn, params, err := c.GraphDefFor("STEM")
	if err != nil {
		t.Fatal(err)
	}
	if gotFn != fn {
		t.Fatalf("function: %q", gotFn)
	}
	if len(params) != 4 || params[0].Attribute != "xpos" || params[3].Attribute != "direction" {
		t.Fatalf("params: %+v", params)
	}
	if !strings.Contains(params[2].Setup, "length") {
		t.Fatalf("setup: %+v", params[2])
	}
	// Missing definitions error.
	if _, _, err := c.GraphDefFor("ENTITY"); err == nil {
		t.Fatal("missing graphdef accepted")
	}
	if _, err := c.DefineGraphDef("x", "NOPE", "", nil); err == nil {
		t.Fatal("graphdef on missing entity accepted")
	}
	if _, err := c.DefineGraphDef("x", "STEM", "", []ParamBinding{{Attribute: "bogus"}}); err == nil {
		t.Fatal("binding to missing attribute accepted")
	}
}

func TestBootstrapIdempotentAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	store, _ := storage.Open(storage.Options{Dir: dir})
	db, _ := model.Open(store)
	if _, err := Bootstrap(db); err != nil {
		t.Fatal(err)
	}
	quel.NewSession(db).Exec(`define entity NOTE (pitch = integer)`)
	store.Close()

	store2, _ := storage.Open(storage.Options{Dir: dir})
	db2, err := model.Open(store2)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c2, err := Bootstrap(db2) // must not redefine, only refresh
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.EntityRef("NOTE"); !ok {
		t.Fatal("NOTE not catalogued after reopen")
	}
	// No duplicate meta-entities were created.
	count := 0
	db2.Instances(TypeEntity, func(value.Ref, value.Tuple) bool { count++; return true })
	var want int
	want = len(db2.EntityTypes())
	if count != want {
		t.Fatalf("ENTITY instances = %d, entity types = %d", count, want)
	}
}

func TestOrderChildRelationship(t *testing.T) {
	db := newDB(t)
	c, _ := Bootstrap(db)
	quel.NewSession(db).Exec(`
define entity VOICE (name = string)
define entity CHORD (name = integer)
define entity REST (name = integer)
define ordering voice_content (CHORD, REST) under VOICE`)
	c.Refresh()
	oref, ok := c.OrderingRef("voice_content")
	if !ok {
		t.Fatal("ordering not catalogued")
	}
	// order_child links both child entity types to the ordering (the
	// figure-9 m:n relationship).
	kids, err := db.RelatedRefs(RelOrderChild, "ordering", oref, "child")
	if err != nil || len(kids) != 2 {
		t.Fatalf("order_child: %v %v", kids, err)
	}
	// The ordering's parent points at the VOICE meta-entity.
	pv, _ := db.Attr(oref, "order_parent")
	voiceRef, _ := c.EntityRef("VOICE")
	if pv.AsRef() != voiceRef {
		t.Fatal("order_parent mismatch")
	}
}
