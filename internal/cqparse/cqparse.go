// Package cqparse reads conjunctive queries and databases from a small
// Datalog-flavoured text format, so the tools can run arbitrary
// project-join queries rather than only generated instances:
//
//	# relations: name, then one tuple per line of integer values
//	rel edge {
//	  0 1
//	  1 0
//	  0 2
//	}
//
//	# the query: head variables are the target schema, the body lists
//	# atoms; Boolean queries use an empty head ans().
//	query ans(x, z) :- edge(x, y), edge(y, z).
//
// Variables are arbitrary identifiers, mapped to dense ids in order of
// first appearance (head first). Multiple rel blocks build the database;
// exactly one query clause is required.
package cqparse

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"projpush/internal/cq"
	"projpush/internal/relation"
)

// File is a parsed input: a database and a query over it, plus the
// mapping from source variable names to query variable ids.
type File struct {
	DB       cq.Database
	Query    *cq.Query
	VarNames map[string]cq.Var
	// Rels counts the input's own rel blocks: zero means DB is the base
	// database passed to ParseWith and nothing else.
	Rels int
}

// Parse reads the whole format from r.
func Parse(r io.Reader) (*File, error) {
	return ParseWith(r, nil)
}

// ParseWith is Parse against a base database: the query is validated
// over the union of the file's own rel blocks and base, with file-local
// relations shadowing base relations of the same name. It serves query
// service requests, which typically carry only a query clause to be
// answered over the server-resident database; base relations referenced
// by the query are shared into the returned File's DB, not copied.
func ParseWith(r io.Reader, base cq.Database) (*File, error) {
	p := &parser{
		sc: bufio.NewScanner(r),
		f:  &File{DB: make(cq.Database)},
	}
	// A request is a ~1 KB query clause: grow from the scanner's default
	// buffer, up to a database file's 16 MiB line.
	p.sc.Buffer(nil, 16*1024*1024)
	for p.next() {
		line := strings.TrimSpace(p.line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "rel "):
			if err := p.relBlock(line); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "query "):
			if err := p.queryClause(line); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("cqparse: line %d: expected 'rel' or 'query', got %q", p.lineNo, line)
		}
	}
	if err := p.sc.Err(); err != nil {
		return nil, err
	}
	if p.f.Query == nil {
		return nil, fmt.Errorf("cqparse: no query clause")
	}
	for name, rel := range base {
		if _, shadowed := p.f.DB[name]; !shadowed {
			p.f.DB[name] = rel
		}
	}
	if err := p.f.Query.Validate(p.f.DB); err != nil {
		return nil, fmt.Errorf("cqparse: %w", err)
	}
	return p.f, nil
}

type parser struct {
	sc     *bufio.Scanner
	line   string
	lineNo int
	f      *File
}

func (p *parser) next() bool {
	if !p.sc.Scan() {
		return false
	}
	p.line = p.sc.Text()
	p.lineNo++
	return true
}

// relBlock parses "rel name {" followed by tuple lines and "}".
func (p *parser) relBlock(header string) error {
	fields := strings.Fields(header)
	if len(fields) != 3 || fields[2] != "{" {
		return fmt.Errorf("cqparse: line %d: want \"rel name {\"", p.lineNo)
	}
	name := fields[1]
	if _, dup := p.f.DB[name]; dup {
		return fmt.Errorf("cqparse: line %d: relation %q redefined", p.lineNo, name)
	}
	var rel *relation.Relation
	for p.next() {
		line := strings.TrimSpace(p.line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "}" {
			if rel == nil {
				return fmt.Errorf("cqparse: line %d: relation %q has no tuples (arity unknown)", p.lineNo, name)
			}
			p.f.DB[name] = rel
			p.f.Rels++
			return nil
		}
		vals := strings.Fields(line)
		if rel == nil {
			attrs := make([]relation.Attr, len(vals))
			for i := range attrs {
				attrs[i] = i
			}
			rel = relation.New(attrs)
		}
		if len(vals) != rel.Arity() {
			return fmt.Errorf("cqparse: line %d: tuple arity %d, relation %q has arity %d",
				p.lineNo, len(vals), name, rel.Arity())
		}
		t := make(relation.Tuple, len(vals))
		for i, v := range vals {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("cqparse: line %d: bad value %q", p.lineNo, v)
			}
			t[i] = relation.Value(n)
		}
		rel.Add(t)
	}
	return fmt.Errorf("cqparse: relation %q not closed with }", name)
}

// queryClause parses "query head(vars) :- atom, atom, ... ." possibly
// spanning lines until the trailing period.
func (p *parser) queryClause(first string) error {
	if p.f.Query != nil {
		return fmt.Errorf("cqparse: line %d: multiple query clauses", p.lineNo)
	}
	text := strings.TrimPrefix(first, "query ")
	for !strings.Contains(text, ".") {
		if !p.next() {
			return fmt.Errorf("cqparse: query clause not terminated with '.'")
		}
		text += " " + strings.TrimSpace(p.line)
	}
	text = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(text), "."))

	headBody := strings.SplitN(text, ":-", 2)
	if len(headBody) != 2 {
		return fmt.Errorf("cqparse: query clause needs ':-'")
	}
	head, err := p.atom(strings.TrimSpace(headBody[0]), nil)
	if err != nil {
		return err
	}

	parts := splitAtoms(strings.TrimSpace(headBody[1]))
	// A connected query has about a variable per atom.
	p.f.VarNames = make(map[string]cq.Var, len(head.args)+len(parts))
	q := &cq.Query{Atoms: make([]cq.Atom, 0, len(parts))}
	varOf := func(name string) (cq.Var, error) {
		if name == "" {
			return 0, fmt.Errorf("cqparse: empty variable name")
		}
		if v, ok := p.f.VarNames[name]; ok {
			return v, nil
		}
		v := len(p.f.VarNames)
		p.f.VarNames[name] = v
		return v, nil
	}
	for _, arg := range head.args {
		v, err := varOf(arg)
		if err != nil {
			return err
		}
		q.Free = append(q.Free, v)
	}

	var names []string // one atom's argument names, reused
	for _, part := range parts {
		a, err := p.atom(part, names[:0])
		if err != nil {
			return err
		}
		atom := cq.Atom{Rel: a.name}
		if len(a.args) > 0 {
			atom.Args = make([]cq.Var, 0, len(a.args))
		}
		for _, arg := range a.args {
			v, err := varOf(arg)
			if err != nil {
				return err
			}
			atom.Args = append(atom.Args, v)
		}
		q.Atoms = append(q.Atoms, atom)
		names = a.args
	}
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cqparse: query has no body atoms")
	}
	p.f.Query = q
	return nil
}

type rawAtom struct {
	name string
	args []string
}

// atom parses "name(a, b, c)" or "name()", appending the arguments to args.
func (p *parser) atom(s string, args []string) (rawAtom, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return rawAtom{}, fmt.Errorf("cqparse: line %d: malformed atom %q", p.lineNo, s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return rawAtom{}, fmt.Errorf("cqparse: line %d: atom with empty name", p.lineNo)
	}
	inner := strings.TrimSpace(s[open+1 : len(s)-1])
	for more := inner != ""; more; {
		var a string
		a, inner, more = strings.Cut(inner, ",")
		if a = strings.TrimSpace(a); a == "" {
			return rawAtom{}, fmt.Errorf("cqparse: line %d: empty argument in %q", p.lineNo, s)
		}
		args = append(args, a)
	}
	return rawAtom{name: name, args: args}, nil
}

// splitAtoms splits the body on commas that are outside parentheses.
func splitAtoms(body string) []string {
	parts := make([]string, 0, strings.Count(body, "(")) // an atom each
	depth, start := 0, 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(body[start:i]))
				start = i + 1
			}
		}
	}
	if last := strings.TrimSpace(body[start:]); last != "" {
		parts = append(parts, last)
	}
	return parts
}

// Write serializes a database and query in the package's text format, so
// generated instances can be saved, edited, and replayed. Variable names
// are rendered as x<id>; relation order is sorted for determinism.
func Write(w io.Writer, db cq.Database, q *cq.Query) error {
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel := db[name]
		if _, err := fmt.Fprintf(w, "rel %s {\n", name); err != nil {
			return err
		}
		for _, t := range rel.SortedTuples() {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = strconv.Itoa(int(v))
			}
			if _, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, "}"); err != nil {
			return err
		}
	}
	return WriteQuery(w, q)
}

// WriteQuery serializes only the query clause, without any rel blocks —
// the shape of a query service request answered over a database the
// server already holds. Variable names are rendered as x<id>.
func WriteQuery(w io.Writer, q *cq.Query) error {
	head := make([]string, len(q.Free))
	for i, v := range q.Free {
		head[i] = fmt.Sprintf("x%d", v)
	}
	if _, err := fmt.Fprintf(w, "query ans(%s) :- ", strings.Join(head, ", ")); err != nil {
		return err
	}
	for i, a := range q.Atoms {
		if i > 0 {
			if _, err := io.WriteString(w, ", "); err != nil {
				return err
			}
		}
		args := make([]string, len(a.Args))
		for j, v := range a.Args {
			args[j] = fmt.Sprintf("x%d", v)
		}
		if _, err := fmt.Fprintf(w, "%s(%s)", a.Rel, strings.Join(args, ", ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, ".")
	return err
}
