package model

import (
	"context"
	"sort"

	"repro/internal/value"
)

// HOEdge is one edge of a hierarchical-ordering graph (one define
// ordering statement, §5.5): the parent type and the ordered child types.
type HOEdge struct {
	Ordering string
	Parent   string
	Children []string
}

// HOGraph is the schema-level hierarchical-ordering graph: every entity
// type that participates in an ordering, plus one edge per ordering.
type HOGraph struct {
	Nodes []string
	Edges []HOEdge
}

// HOGraph builds the HO graph of the current schema, restricted to the
// named orderings (all orderings when names is empty).  Figures 7, 8(a),
// 9, and 13 of the paper are renderings of such graphs.
func (db *Database) HOGraph(names ...string) *HOGraph {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if len(names) == 0 {
		names = make([]string, 0, len(db.orderings))
		for n := range db.orderings {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	g := &HOGraph{}
	seen := map[string]bool{}
	addNode := func(n string) {
		if !seen[n] {
			seen[n] = true
			g.Nodes = append(g.Nodes, n)
		}
	}
	for _, name := range names {
		o, ok := db.orderings[name]
		if !ok {
			continue
		}
		addNode(o.Parent)
		for _, c := range o.Children {
			addNode(c)
		}
		g.Edges = append(g.Edges, HOEdge{
			Ordering: o.Name,
			Parent:   o.Parent,
			Children: append([]string(nil), o.Children...),
		})
	}
	return g
}

// InstanceNode is one node of an instance graph: an entity with a display
// label (its type and surrogate, plus an optional attribute value).
type InstanceNode struct {
	Ref   value.Ref
	Type  string
	Label string
}

// InstanceEdge is a P-edge (child → parent) or S-edge (sibling → next
// sibling) of an instance graph (§5.3).
type InstanceEdge struct {
	From, To value.Ref
	Ordering string
}

// InstanceGraph is the pictorial representation of hierarchically
// ordered data (§5.3, figures 6 and 8(c)).
type InstanceGraph struct {
	Nodes  []InstanceNode
	PEdges []InstanceEdge
	SEdges []InstanceEdge
}

// InstanceGraph builds the instance graph of the subtree rooted at root,
// following the named orderings (all orderings when names is empty).
// labelAttr, when non-empty, names an attribute whose value labels each
// node (falling back to the type name).
func (db *Database) InstanceGraph(root value.Ref, labelAttr string, names ...string) (*InstanceGraph, error) {
	db.mu.RLock()
	if len(names) == 0 {
		names = make([]string, 0, len(db.orderings))
		for n := range db.orderings {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	var orders []*Ordering
	for _, n := range names {
		if o, ok := db.orderings[n]; ok {
			orders = append(orders, o)
		}
	}
	db.mu.RUnlock()

	var g *InstanceGraph
	err := db.read(context.Background(), func(v View) error {
		g = &InstanceGraph{}
		visited := map[value.Ref]bool{}
		var visit func(ref value.Ref) error
		visit = func(ref value.Ref) error {
			if visited[ref] {
				return nil
			}
			visited[ref] = true
			et, _, row, err := v.locate(ref)
			if err != nil {
				return err
			}
			label := et.Name
			if i, ok := et.AttrIndex(labelAttr); ok && !row.Col(i+1).IsNull() {
				label = row.Col(i + 1).String()
			}
			g.Nodes = append(g.Nodes, InstanceNode{Ref: ref, Type: et.Name, Label: label})
			for _, o := range orders {
				if o.Parent != et.Name {
					continue
				}
				lo, hi := refRange(ref)
				kids, err := v.childRefs(o, lo, hi)
				if err != nil {
					return err
				}
				for i, k := range kids {
					g.PEdges = append(g.PEdges, InstanceEdge{From: k, To: ref, Ordering: o.Name})
					if i > 0 {
						g.SEdges = append(g.SEdges, InstanceEdge{From: kids[i-1], To: k, Ordering: o.Name})
					}
				}
				for _, k := range kids {
					if err := visit(k); err != nil {
						return err
					}
				}
			}
			return nil
		}
		return visit(root)
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}
