// Package cq defines conjunctive (project-join) queries and the databases
// they are evaluated over.
//
// A conjunctive query is an expression π_{x1..xn}(R1 ⋈ ... ⋈ Rm): a list of
// atoms, each naming a database relation and binding its columns to query
// variables, plus a list of free variables (the target schema). Boolean
// queries have an empty target schema; the paper emulates them with a
// single free variable, and both conventions are supported here.
package cq

import (
	"fmt"
	"slices"
	"sort"

	"projpush/internal/relation"
)

// Var identifies a query variable (equivalently, an attribute of an
// intermediate relation). Variables double as relation attributes so plans
// can be built without a renaming layer.
type Var = relation.Attr

// Atom is one occurrence of a database relation in the join, with its
// columns bound to query variables. The same variable may appear in
// multiple atoms (that is what the join enforces) but — as in the paper's
// queries — not twice within a single atom.
type Atom struct {
	// Rel names the database relation.
	Rel string
	// Args binds the relation's columns, in order, to query variables.
	Args []Var
}

// Vars returns the atom's variables (its Args).
func (a Atom) Vars() []Var { return a.Args }

// HasVar reports whether v occurs in the atom.
func (a Atom) HasVar(v Var) bool {
	for _, x := range a.Args {
		if x == v {
			return true
		}
	}
	return false
}

// String renders the atom as rel(x0,x1,...).
func (a Atom) String() string {
	s := a.Rel + "("
	for i, v := range a.Args {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("x%d", v)
	}
	return s + ")"
}

// Query is a project-join (conjunctive) query.
type Query struct {
	// Atoms is the join list, in the order the query presents them; the
	// straightforward method evaluates them in exactly this order.
	Atoms []Atom
	// Free is the target schema. Empty means a truly Boolean query; the
	// paper's experiments use a single free variable instead ("we emulate
	// Boolean queries by including only a single variable in the
	// projection").
	Free []Var
}

// Database maps relation names to relations. The paper's databases are
// tiny — a single 6-tuple binary relation for 3-COLOR — but any relations
// fit.
type Database map[string]*relation.Relation

// Vars returns all variables of the query in order of first occurrence
// (atoms first, then any free variables that appear in no atom).
func (q *Query) Vars() []Var {
	seen := make(map[Var]bool, len(q.Atoms)) // a connected query has about a variable per atom
	var out []Var
	add := func(v Var) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, a := range q.Atoms {
		for _, v := range a.Args {
			add(v)
		}
	}
	for _, v := range q.Free {
		add(v)
	}
	return out
}

// NumVars returns the number of distinct variables.
func (q *Query) NumVars() int { return len(q.Vars()) }

// IsBoolean reports whether the query has at most one free variable, the
// paper's operational notion of a Boolean query (nonempty vs empty result).
func (q *Query) IsBoolean() bool { return len(q.Free) <= 1 }

// IsFree reports whether v is in the target schema.
func (q *Query) IsFree(v Var) bool {
	for _, f := range q.Free {
		if f == v {
			return true
		}
	}
	return false
}

// FirstOccurrence returns min_occur: for each variable the index of the
// first atom containing it (the paper's min_occur array).
func (q *Query) FirstOccurrence() map[Var]int {
	m := make(map[Var]int)
	for i, a := range q.Atoms {
		for _, v := range a.Args {
			if _, ok := m[v]; !ok {
				m[v] = i
			}
		}
	}
	return m
}

// LastOccurrence returns max_occur: for each variable the index of the
// last atom containing it. Free variables are reported as occurring at
// index len(Atoms) — one past the end — matching the paper's trick of
// setting max_occur[j] = |E|+1 for free vertices so they stay live.
func (q *Query) LastOccurrence() map[Var]int {
	m := make(map[Var]int)
	for i, a := range q.Atoms {
		for _, v := range a.Args {
			m[v] = i
		}
	}
	for _, v := range q.Free {
		m[v] = len(q.Atoms)
	}
	return m
}

// Validate checks the query is well formed over db: every atom names an
// existing relation with matching arity, no atom repeats a variable, and
// every free variable occurs in some atom.
func (q *Query) Validate(db Database) error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq: query has no atoms")
	}
	for i, a := range q.Atoms {
		rel, ok := db[a.Rel]
		if !ok {
			return fmt.Errorf("cq: atom %d references unknown relation %q", i, a.Rel)
		}
		if rel.Arity() != len(a.Args) {
			return fmt.Errorf("cq: atom %d arity %d != relation %q arity %d",
				i, len(a.Args), a.Rel, rel.Arity())
		}
		seen := make(map[Var]bool, len(a.Args))
		for _, v := range a.Args {
			if seen[v] {
				return fmt.Errorf("cq: atom %d repeats variable x%d", i, v)
			}
			seen[v] = true
		}
	}
	for i, v := range q.Free {
		if slices.Contains(q.Free[:i], v) {
			return fmt.Errorf("cq: target schema repeats variable x%d", v)
		}
		if !q.occurs(v) {
			return fmt.Errorf("cq: free variable x%d occurs in no atom", v)
		}
	}
	return nil
}

// occurs reports whether v is an argument of some atom.
func (q *Query) occurs(v Var) bool {
	for _, a := range q.Atoms {
		for _, w := range a.Args {
			if w == v {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{
		Atoms: make([]Atom, len(q.Atoms)),
		Free:  append([]Var(nil), q.Free...),
	}
	for i, a := range q.Atoms {
		c.Atoms[i] = Atom{Rel: a.Rel, Args: append([]Var(nil), a.Args...)}
	}
	return c
}

// Permute returns a copy of the query with atoms reordered by perm:
// result.Atoms[i] = q.Atoms[perm[i]]. perm must be a permutation of
// 0..len(Atoms)-1.
func (q *Query) Permute(perm []int) (*Query, error) {
	if len(perm) != len(q.Atoms) {
		return nil, fmt.Errorf("cq: permutation length %d != %d atoms", len(perm), len(q.Atoms))
	}
	used := make([]bool, len(perm))
	c := q.Clone()
	for i, p := range perm {
		if p < 0 || p >= len(perm) || used[p] {
			return nil, fmt.Errorf("cq: invalid permutation %v", perm)
		}
		used[p] = true
		c.Atoms[i] = q.Atoms[p]
	}
	return c, nil
}

// String renders the query as π_{x..}(atom ⋈ atom ⋈ ...).
func (q *Query) String() string {
	s := "π{"
	for i, v := range q.Free {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("x%d", v)
	}
	s += "}("
	for i, a := range q.Atoms {
		if i > 0 {
			s += " ⋈ "
		}
		s += a.String()
	}
	return s + ")"
}

// CanonicalDatabase builds the Chandra–Merlin canonical database of q: the
// query itself viewed as data, with each variable frozen into a distinct
// domain value. It returns the database and the frozen value assigned to
// each variable. Evaluating another query q' over this database decides
// the homomorphism q' → q, the core test of containment and minimization.
func CanonicalDatabase(q *Query) (Database, map[Var]relation.Value) {
	vars := q.Vars()
	sort.Ints(vars)
	frozen := make(map[Var]relation.Value, len(vars))
	for i, v := range vars {
		frozen[v] = relation.Value(i)
	}
	db := make(Database)
	for _, a := range q.Atoms {
		rel, ok := db[a.Rel]
		if !ok {
			attrs := make([]relation.Attr, len(a.Args))
			for i := range attrs {
				attrs[i] = i
			}
			rel = relation.New(attrs)
			db[a.Rel] = rel
		}
		t := make(relation.Tuple, len(a.Args))
		for i, v := range a.Args {
			t[i] = frozen[v]
		}
		rel.Add(t)
	}
	return db, frozen
}
