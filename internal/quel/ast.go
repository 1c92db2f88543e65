// Package quel implements the language of the music data manager: the
// data definition statements of §5.4 and a QUEL dialect (after INGRES)
// extended, per §5.6 of the paper, with three operators over
// hierarchically ordered entities — before, after, and under — plus the
// GEM-style entity equivalence operator is.  One parser reads both, so
// one source may mix them.
//
// Statements:
//
//	define entity NAME ( attr = type {, attr = type} )
//	define relationship NAME ( attr = type {, attr = type} )
//	define ordering [ name ] ( child {, child} ) [ under parent ]
//	define index on ENTITY ( attr {, attr} )
//	drop index on ENTITY ( attr {, attr} )
//	range of var {, var} is ENTITY
//	retrieve [unique] ( target {, target} ) [ where qual ]
//	append to ENTITY ( attr = expr {, attr = expr} )
//	replace var ( attr = expr {, attr = expr} ) [ where qual ]
//	delete var [ where qual ]
//	explain retrieve ...
//
// The define statements follow the BNF of §5.4.  An attribute whose type
// names an entity type is a reference attribute — the implicit
// representation of a "1 to n" relationship (§5.1, composition_date =
// DATE); in a define relationship, reference attributes are the
// relationship's roles.  define index and drop index are an extension:
// a secondary index (the §5.2 relational ordering optimization) and its
// removal.  Every statement is planned when it runs, so the next one
// sees a schema change.
//
// Targets are attribute projections (var.attr, optionally labelled
// `label = var.attr`), whole-entity projections (var.all), or aggregates
// (count/sum/avg/min/max over var.attr, with an optional inner where).
// Qualifications combine comparisons, arithmetic, and the entity
// operators with and/or/not.  A range variable with the same name as its
// entity type is implicitly declared (footnote 6 of the paper).
package quel

import "repro/internal/value"

// Stmt is one parsed statement.
type Stmt interface{ quelStmt() }

// AttrDef is one "name = type" attribute definition.
type AttrDef struct {
	Name     string
	TypeName string
}

// DefineEntity is a define entity statement.
type DefineEntity struct {
	Name  string
	Attrs []AttrDef
}

// DefineRelationship is a define relationship statement.
type DefineRelationship struct {
	Name  string
	Attrs []AttrDef
}

// DefineOrdering is a define ordering statement.
type DefineOrdering struct {
	Name     string // optional
	Children []string
	Parent   string // optional in the grammar; required for execution
}

// DefineIndex is the index-creation extension.
type DefineIndex struct {
	Entity string
	Attrs  []string
}

// DropIndex removes the index a matching DefineIndex created.
type DropIndex struct {
	Entity string
	Attrs  []string
}

// RangeStmt declares range variables over an entity type.
type RangeStmt struct {
	Vars       []string
	EntityType string
}

// Retrieve projects targets for every binding satisfying the
// qualification.
type Retrieve struct {
	Unique  bool
	Targets []Target
	Where   Expr // nil means true
	SortBy  []SortKey
}

// SortKey orders the result by a named result column (the INGRES
// `sort by` clause).
type SortKey struct {
	Label string
	Desc  bool
}

// Target is one projection item.
type Target struct {
	Label string // result column label; defaulted from the expression
	All   bool   // var.all
	Var   string // set when All
	Expr  Expr   // nil when All
}

// Append creates a new entity instance.
type Append struct {
	EntityType string
	Assigns    []Assign
}

// Replace updates attributes of the entities bound to Var in bindings
// satisfying the qualification.
type Replace struct {
	Var     string
	Assigns []Assign
	Where   Expr
}

// Delete removes the entities bound to Var in bindings satisfying the
// qualification.
type Delete struct {
	Var   string
	Where Expr
}

// Explain wraps a statement whose execution plan (with estimated vs.
// actual row counts and timings) is to be reported instead of its
// result rows.  Currently only retrieve statements can be explained.
type Explain struct {
	Stmt Stmt
}

// Assign is one "attr = expr" assignment.
type Assign struct {
	Attr string
	Expr Expr
}

func (DefineEntity) quelStmt()       {}
func (DefineRelationship) quelStmt() {}
func (DefineOrdering) quelStmt()     {}
func (DefineIndex) quelStmt()        {}
func (DropIndex) quelStmt()          {}
func (RangeStmt) quelStmt()          {}
func (Retrieve) quelStmt()           {}
func (Append) quelStmt()             {}
func (Replace) quelStmt()            {}
func (Delete) quelStmt()             {}
func (Explain) quelStmt()            {}

// IsDDL reports whether st defines or drops schema.
func IsDDL(st Stmt) bool {
	switch st.(type) {
	case DefineEntity, DefineRelationship, DefineOrdering, DefineIndex, DropIndex:
		return true
	}
	return false
}

// ReadOnly reports whether st can never write: range, retrieve and
// explain.
func ReadOnly(st Stmt) bool {
	switch st.(type) {
	case RangeStmt, Retrieve, Explain:
		return true
	}
	return false
}

// Expr is an expression node.
type Expr interface{ quelExpr() }

// Lit is a literal value.
type Lit struct{ V value.Value }

// Param is a statement placeholder ($1, $2, ...) bound at execution
// time.  Indices are 1-based; binding substitutes each Param with the
// literal value of the corresponding argument before planning, so a
// bound parameter participates in sarg extraction and index selection
// exactly as an inline literal would.
type Param struct{ Idx int }

// AttrRef is var.attr.
type AttrRef struct{ Var, Attr string }

// VarRef is a bare range variable (operand of is/before/after/under).
type VarRef struct{ Var string }

// Binary is a binary operation: arithmetic (+ - * /), comparison
// (= != < <= > >=), or boolean (and, or).
type Binary struct {
	Op   string
	L, R Expr
}

// Unary is boolean not or arithmetic negation.
type Unary struct {
	Op string // "not" or "-"
	X  Expr
}

// IsOp is the GEM entity-equivalence operator: L is R.
type IsOp struct{ L, R Expr }

// OrderOp is one of the §5.6 hierarchical-ordering operators.
type OrderOp struct {
	Op    string // "before", "after", "under"
	L, R  Expr   // range variables (VarRef) after parsing
	Order string // optional `in order_name`
}

// IncipitOp is the thematic-index predicate: L incipit R.  L must be a
// range variable over an entity type with a registered incipit index
// (model.IncipitIndex); R evaluates to a pitch-pattern string in the
// syntax that index accepts.  The predicate holds when the entity's
// incipit contains the pattern's interval sequence
// (transposition-invariant); the planner turns a conjunct of this form
// into a gram-index candidate scan (IncipitScan in explain).
type IncipitOp struct{ L, R Expr }

// Agg is an aggregate function over a range variable's attribute, with an
// optional inner qualification: count(n.all), sum(n.pitch where ...).
// Aggregates without by-lists are evaluated over their own independent
// range, per QUEL semantics.
type Agg struct {
	Fn    string // count, sum, avg, min, max, any
	Var   string
	Attr  string // empty for count(var.all)
	Where Expr
}

func (Lit) quelExpr()       {}
func (Param) quelExpr()     {}
func (AttrRef) quelExpr()   {}
func (VarRef) quelExpr()    {}
func (Binary) quelExpr()    {}
func (Unary) quelExpr()     {}
func (IsOp) quelExpr()      {}
func (OrderOp) quelExpr()   {}
func (IncipitOp) quelExpr() {}
func (Agg) quelExpr()       {}
