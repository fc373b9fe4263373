package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func edgeRelation(a, b Attr) *Relation {
	// The paper's single database relation: all pairs of distinct colors.
	r := New([]Attr{a, b})
	for i := Value(0); i < 3; i++ {
		for j := Value(0); j < 3; j++ {
			if i != j {
				r.Add(Tuple{i, j})
			}
		}
	}
	return r
}

func TestNewPanicsOnDuplicateAttr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate attribute")
		}
	}()
	New([]Attr{1, 2, 1})
}

// TestNewAndRenameAllocations pins what a relation header costs: New
// allocates the struct, its schema and one slab for both column ranges,
// and takes its key columns from the shared identity; Rename allocates the
// view and its schema. Every scan of every executor goes through one of
// the two, so a per-attribute lookup map (two more allocations each) shows
// up per operator per request. Pos and HasAttr scan the schema.
func TestNewAndRenameAllocations(t *testing.T) {
	attrs := []Attr{3, 5, 9}
	src := New(attrs)
	src.Add(Tuple{1, 2, 3})
	m := map[Attr]Attr{3: 30, 5: 50}
	if n := testing.AllocsPerRun(100, func() { New(attrs) }); n > 3 {
		t.Errorf("New: %v allocations, want at most 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { Rename(src, m) }); n > 2 {
		t.Errorf("Rename: %v allocations, want at most 2", n)
	}
	v := Rename(src, m)
	for _, c := range []struct {
		r    *Relation
		a    Attr
		want int
	}{{src, 5, 1}, {src, 50, -1}, {v, 50, 1}, {v, 9, 2}, {v, 3, -1}} {
		if got := c.r.Pos(c.a); got != c.want || c.r.HasAttr(c.a) != (c.want >= 0) {
			t.Errorf("%v: Pos(%d) = %d, HasAttr %v; want %d", c.r.Attrs(), c.a, got, c.r.HasAttr(c.a), c.want)
		}
	}
}

func TestAddDedup(t *testing.T) {
	r := New([]Attr{0, 1})
	if !r.Add(Tuple{1, 2}) {
		t.Fatal("first Add returned false")
	}
	if r.Add(Tuple{1, 2}) {
		t.Fatal("duplicate Add returned true")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if !r.Contains(Tuple{1, 2}) {
		t.Fatal("Contains missed inserted tuple")
	}
	if r.Contains(Tuple{2, 1}) {
		t.Fatal("Contains found absent tuple")
	}
}

func TestAddCopiesTuple(t *testing.T) {
	r := New([]Attr{0})
	tu := Tuple{7}
	r.Add(tu)
	tu[0] = 9
	if !r.Contains(Tuple{7}) {
		t.Fatal("relation shares storage with caller tuple")
	}
}

func TestAddArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for arity mismatch")
		}
	}()
	New([]Attr{0, 1}).Add(Tuple{1})
}

func TestEncodeLargeValues(t *testing.T) {
	r := New([]Attr{0, 1})
	r.Add(Tuple{300, 1})
	r.Add(Tuple{1, 300})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2: large-value encoding collided", r.Len())
	}
	r.Add(Tuple{-1, 5})
	if !r.Contains(Tuple{-1, 5}) {
		t.Fatal("negative value lost")
	}
}

func TestEncodeEscapeNoCollision(t *testing.T) {
	// Value 255 must not be confusable with the escape byte of value 255.
	r := New([]Attr{0})
	r.Add(Tuple{255})
	r.Add(Tuple{256})
	if r.Len() != 2 {
		t.Fatal("escape encoding collided for 255 vs 256")
	}
}

func TestJoinBasic(t *testing.T) {
	// edge(0,1) ⋈ edge(1,2): pairs of edges sharing the middle vertex.
	e1 := edgeRelation(0, 1)
	e2 := edgeRelation(1, 2)
	j := Join(e1, e2)
	if got, want := j.Arity(), 3; got != want {
		t.Fatalf("arity = %d, want %d", got, want)
	}
	// For each of 6 (a,b) pairs there are 2 choices of c ≠ b: 12 tuples.
	if got, want := j.Len(), 12; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	j.Each(func(tu Tuple) bool {
		a, b, c := tu[0], tu[1], tu[2]
		if a == b || b == c {
			t.Fatalf("tuple %v violates edge constraints", tu)
		}
		return true
	})
}

func TestJoinNoSharedAttrsIsCrossProduct(t *testing.T) {
	e1 := edgeRelation(0, 1)
	e2 := edgeRelation(2, 3)
	j := Join(e1, e2)
	if got, want := j.Len(), 36; got != want {
		t.Fatalf("cross product len = %d, want %d", got, want)
	}
}

func TestJoinAllSharedAttrsIsIntersection(t *testing.T) {
	a := New([]Attr{0, 1})
	a.Add(Tuple{1, 2})
	a.Add(Tuple{3, 4})
	b := New([]Attr{1, 0}) // same attrs, different column order
	b.Add(Tuple{2, 1})
	b.Add(Tuple{5, 6})
	j := Join(a, b)
	if j.Len() != 1 || !j.Contains(Tuple{1, 2}) {
		t.Fatalf("join-as-intersection got %v", j)
	}
}

func TestJoinEmptyInput(t *testing.T) {
	e := edgeRelation(0, 1)
	empty := New([]Attr{1, 2})
	if j := Join(e, empty); !j.Empty() {
		t.Fatalf("join with empty relation not empty: %v", j)
	}
}

func TestJoinSchemaOrder(t *testing.T) {
	e1 := edgeRelation(0, 1)
	e2 := edgeRelation(1, 2)
	j := Join(e1, e2)
	want := []Attr{0, 1, 2}
	got := j.Attrs()
	if len(got) != len(want) {
		t.Fatalf("attrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attrs = %v, want %v", got, want)
		}
	}
}

func TestJoinRowLimit(t *testing.T) {
	e1 := edgeRelation(0, 1)
	e2 := edgeRelation(2, 3)
	_, err := JoinLimited(e1, e2, &Limit{MaxRows: 10})
	if err != ErrRowLimit {
		t.Fatalf("err = %v, want ErrRowLimit", err)
	}
}

func TestJoinDeadline(t *testing.T) {
	// Build a join large enough to cross a deadline check boundary.
	big1 := New([]Attr{0})
	big2 := New([]Attr{1})
	for i := Value(0); i < 300; i++ {
		big1.Add(Tuple{i})
		big2.Add(Tuple{i})
	}
	_, err := JoinLimited(big1, big2, &Limit{Deadline: time.Now().Add(-time.Second)})
	if err != ErrDeadline {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

func TestJoinWorkCounter(t *testing.T) {
	var work int64
	e1 := edgeRelation(0, 1)
	e2 := edgeRelation(1, 2)
	if _, err := JoinLimited(e1, e2, &Limit{Work: &work}); err != nil {
		t.Fatal(err)
	}
	if work == 0 {
		t.Fatal("work counter not charged")
	}
}

func TestProject(t *testing.T) {
	e := edgeRelation(0, 1)
	p := Project(e, []Attr{0})
	if p.Len() != 3 {
		t.Fatalf("projection len = %d, want 3", p.Len())
	}
	p2 := Project(e, []Attr{1, 0})
	if p2.Len() != 6 || p2.Attrs()[0] != 1 {
		t.Fatalf("column-reorder projection wrong: %v", p2)
	}
}

func TestProjectUnknownAttr(t *testing.T) {
	e := edgeRelation(0, 1)
	if _, err := ProjectLimited(e, []Attr{5}, nil); err == nil {
		t.Fatal("expected error for unknown attribute")
	}
}

func TestProjectEmptyAttrList(t *testing.T) {
	e := edgeRelation(0, 1)
	p := Project(e, nil)
	// Projecting a nonempty relation to zero columns yields the single
	// empty tuple — the relational "true".
	if p.Len() != 1 || p.Arity() != 0 {
		t.Fatalf("nullary projection: len=%d arity=%d, want 1, 0", p.Len(), p.Arity())
	}
	empty := New([]Attr{0, 1})
	if p := Project(empty, nil); p.Len() != 0 {
		t.Fatal("nullary projection of empty relation must be empty")
	}
}

// semijoin is r ⋉ o through SemijoinFilter, on a private clone of r (the
// kernel consumes its receiver).
func semijoin(t *testing.T, r, o *Relation) *Relation {
	t.Helper()
	out, _, err := SemijoinFilter(r.Clone(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSemijoin(t *testing.T) {
	e1 := edgeRelation(0, 1)
	single := New([]Attr{1})
	single.Add(Tuple{2})
	s := semijoin(t, e1, single)
	if s.Len() != 2 {
		t.Fatalf("semijoin len = %d, want 2", s.Len())
	}
	s.Each(func(tu Tuple) bool {
		if tu[1] != 2 {
			t.Fatalf("semijoin kept %v", tu)
		}
		return true
	})
}

func TestSemijoinNoSharedAttrs(t *testing.T) {
	e := edgeRelation(0, 1)
	non := New([]Attr{5})
	non.Add(Tuple{0})
	if s := semijoin(t, e, non); s.Len() != e.Len() {
		t.Fatal("semijoin with nonempty disjoint relation must keep all tuples")
	}
	if s := semijoin(t, e, New([]Attr{5})); !s.Empty() {
		t.Fatal("semijoin with empty disjoint relation must be empty")
	}
}

func TestSemijoinEquivalentToJoinProject(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := New([]Attr{0, 1})
		b := New([]Attr{1, 2})
		for i := 0; i < 20; i++ {
			a.Add(Tuple{Value(rng.Intn(4)), Value(rng.Intn(4))})
			b.Add(Tuple{Value(rng.Intn(4)), Value(rng.Intn(4))})
		}
		want := Project(Join(a, b), []Attr{0, 1})
		got := semijoin(t, a, b)
		if !got.Equal(want) {
			t.Fatalf("trial %d: semijoin %v != π(join) %v", trial, got, want)
		}
	}
}

func TestRename(t *testing.T) {
	e := edgeRelation(0, 1)
	r := Rename(e, map[Attr]Attr{0: 10})
	if !r.HasAttr(10) || r.HasAttr(0) || !r.HasAttr(1) {
		t.Fatalf("rename schema wrong: %v", r.Attrs())
	}
	if r.Len() != e.Len() {
		t.Fatal("rename changed cardinality")
	}
}

func TestRenameZeroCopyIndependence(t *testing.T) {
	src := New([]Attr{0, 1})
	src.Add(Tuple{1, 2})
	src.Add(Tuple{3, 4})
	view := Rename(src, map[Attr]Attr{0: 10})

	// Mutating the view must not affect the source.
	if !view.Add(Tuple{5, 6}) {
		t.Fatal("view rejected fresh tuple")
	}
	if src.Len() != 2 || src.Contains(Tuple{5, 6}) {
		t.Fatalf("view mutation leaked into source: %v", src)
	}
	// Mutating the source must not affect the view (or earlier views).
	if !src.Add(Tuple{7, 8}) {
		t.Fatal("source rejected fresh tuple")
	}
	if view.Len() != 3 || view.Contains(Tuple{7, 8}) {
		t.Fatalf("source mutation leaked into view: %v", view)
	}
	// Dedup state still correct on both sides.
	if src.Add(Tuple{1, 2}) || view.Add(Tuple{1, 2}) {
		t.Fatal("duplicate accepted after unsharing")
	}
}

func TestRenameOfRename(t *testing.T) {
	src := New([]Attr{0, 1})
	src.Add(Tuple{1, 2})
	v1 := Rename(src, map[Attr]Attr{0: 10})
	v2 := Rename(v1, map[Attr]Attr{10: 20})
	if !v2.HasAttr(20) || !v2.HasAttr(1) || v2.Len() != 1 {
		t.Fatalf("chained rename wrong: %v", v2)
	}
	v2.Add(Tuple{9, 9})
	if src.Len() != 1 || v1.Len() != 1 {
		t.Fatal("chained rename shares mutable state")
	}
}

func TestRenameCollapsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when rename collapses attributes")
		}
	}()
	Rename(New([]Attr{0, 1}), map[Attr]Attr{0: 1})
}

func TestEqualIgnoresColumnOrder(t *testing.T) {
	a := New([]Attr{0, 1})
	a.Add(Tuple{1, 2})
	b := New([]Attr{1, 0})
	b.Add(Tuple{2, 1})
	if !a.Equal(b) {
		t.Fatal("Equal must ignore column order")
	}
	b.Add(Tuple{3, 3})
	if a.Equal(b) {
		t.Fatal("Equal must detect cardinality difference")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New([]Attr{0})
	a.Add(Tuple{1})
	c := a.Clone()
	c.Add(Tuple{2})
	if a.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone shares state")
	}
}

func TestSortedTuplesDeterministic(t *testing.T) {
	r := New([]Attr{0, 1})
	r.Add(Tuple{2, 1})
	r.Add(Tuple{1, 2})
	r.Add(Tuple{1, 1})
	s := r.SortedTuples()
	want := []Tuple{{1, 1}, {1, 2}, {2, 1}}
	for i := range want {
		if s[i][0] != want[i][0] || s[i][1] != want[i][1] {
			t.Fatalf("sorted order %v, want %v", s, want)
		}
	}
}

// randomRelation builds a relation over attrs with n random tuples drawn
// from [0,domain).
func randomRelation(rng *rand.Rand, attrs []Attr, n, domain int) *Relation {
	r := New(attrs)
	for i := 0; i < n; i++ {
		t := make(Tuple, len(attrs))
		for j := range t {
			t[j] = Value(rng.Intn(domain))
		}
		r.Add(t)
	}
	return r
}

// nestedLoopJoin is a trivially-correct oracle for the hash join.
func nestedLoopJoin(r, o *Relation) *Relation {
	outAttrs := append([]Attr(nil), r.Attrs()...)
	for _, a := range o.Attrs() {
		if !r.HasAttr(a) {
			outAttrs = append(outAttrs, a)
		}
	}
	out := New(outAttrs)
	shared := SharedAttrs(r, o)
	for _, rt := range r.Tuples() {
	next:
		for _, ot := range o.Tuples() {
			for _, a := range shared {
				if r.Value(rt, a) != o.Value(ot, a) {
					continue next
				}
			}
			row := make(Tuple, len(outAttrs))
			for i, a := range outAttrs {
				if r.HasAttr(a) {
					row[i] = r.Value(rt, a)
				} else {
					row[i] = o.Value(ot, a)
				}
			}
			out.Add(row)
		}
	}
	return out
}

func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64, arityA, arityB, overlap uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		na := int(arityA%3) + 1
		nb := int(arityB%3) + 1
		ov := int(overlap) % (min(na, nb) + 1)
		// attrs: A gets 0..na-1; B shares the last ov of A's attrs.
		aAttrs := make([]Attr, na)
		for i := range aAttrs {
			aAttrs[i] = i
		}
		bAttrs := make([]Attr, nb)
		for i := range bAttrs {
			if i < ov {
				bAttrs[i] = na - ov + i
			} else {
				bAttrs[i] = 100 + i
			}
		}
		a := randomRelation(rng, aAttrs, 15, 3)
		b := randomRelation(rng, bAttrs, 15, 3)
		return Join(a, b).Equal(nestedLoopJoin(a, b))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJoinCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, []Attr{0, 1}, 20, 3)
		b := randomRelation(rng, []Attr{1, 2}, 20, 3)
		return Join(a, b).Equal(Join(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJoinAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, []Attr{0, 1}, 12, 3)
		b := randomRelation(rng, []Attr{1, 2}, 12, 3)
		c := randomRelation(rng, []Attr{2, 3}, 12, 3)
		return Join(Join(a, b), c).Equal(Join(a, Join(b, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProjectionPushingEquivalence(t *testing.T) {
	// π_X(A ⋈ B) = π_X(π_{X∪shared}(A) ⋈ B) when the projected-away
	// attributes of A occur only in A — the rewrite at the heart of the
	// paper (Section 4).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, []Attr{0, 1, 2}, 25, 3)
		b := randomRelation(rng, []Attr{2, 3}, 25, 3)
		// Attribute 0 occurs only in A; project it early.
		want := Project(Join(a, b), []Attr{1, 2, 3})
		got := Project(Join(Project(a, []Attr{1, 2}), b), []Attr{1, 2, 3})
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProjectIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, []Attr{0, 1, 2}, 25, 4)
		p := Project(a, []Attr{0, 2})
		return Project(p, []Attr{0, 2}).Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHashKeyerLargeValues(t *testing.T) {
	// Joins must stay correct when the 3-column join key does not pack:
	// values negative or over 2^21 are FNV-hashed and verified.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New([]Attr{0, 1, 2, 3})
		b := New([]Attr{1, 2, 3, 4})
		wide := func() Value { return Value(rng.Intn(4)<<21 - 1<<21) }
		for i := 0; i < 20; i++ {
			a.Add(Tuple{Value(rng.Intn(4)), wide(), Value(rng.Intn(2)), wide()})
			b.Add(Tuple{wide(), Value(rng.Intn(2)), wide(), Value(rng.Intn(4))})
		}
		if pos := b.colsOf([]Attr{1, 2, 3}); b.packs(pos) {
			return false // the key must hash
		}
		return Join(a, b).Equal(nestedLoopJoin(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	r := New([]Attr{0, 1})
	r.Add(Tuple{1, 2})
	got := r.String()
	if got != "(x0,x1){(1,2)}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPackedModeMigration(t *testing.T) {
	// Rows that pack use exact keys; the first row that does not (a
	// 3-column row gives each value 21 bits) migrates to FNV keys without
	// losing dedup state.
	const big = 1 << 21
	r := New([]Attr{0, 1, 2})
	r.Add(Tuple{1, 2, 0})
	r.Add(Tuple{1, 2, 0})
	if r.Len() != 1 || !r.exact {
		t.Fatal("packed dedup broken")
	}
	r.Add(Tuple{big, 2, 0}) // forces migration
	if r.Len() != 2 || r.exact {
		t.Fatal("migration lost or duplicated tuples, or did not migrate")
	}
	// Pre-migration duplicates still detected.
	if r.Add(Tuple{1, 2, 0}) {
		t.Fatal("duplicate accepted after migration")
	}
	if r.Add(Tuple{big, 2, 0}) {
		t.Fatal("post-migration duplicate accepted")
	}
	if !r.Contains(Tuple{1, 2, 0}) || !r.Contains(Tuple{big, 2, 0}) {
		t.Fatal("Contains wrong after migration")
	}
	if r.Contains(Tuple{big - 1, 2, 0}) {
		t.Fatal("Contains found absent tuple after migration")
	}
}

func TestPackedModeContainsOutOfRange(t *testing.T) {
	r := New([]Attr{0, 1, 2})
	r.Add(Tuple{3, 0, 0})
	for _, tu := range []Tuple{{-1, 0, 0}, {3, 0, 1 << 21}} {
		if r.Contains(tu) {
			t.Fatalf("packed Contains matched %v, which does not pack", tu)
		}
	}
	if !r.exact {
		t.Fatal("a probe that does not pack migrated the relation")
	}
}

// TestWideSchemaSkipsPackedMode: nine columns get 7 bits a value, so a
// 9-ary row of zeros packs and one holding 2^7 sends the relation to FNV
// keys; dedup holds in both regimes.
func TestWideSchemaSkipsPackedMode(t *testing.T) {
	attrs := make([]Attr, 9)
	for i := range attrs {
		attrs[i] = i
	}
	r := New(attrs)
	zeros, wide := make(Tuple, 9), make(Tuple, 9)
	wide[8] = 1 << 7
	for _, tu := range []Tuple{zeros, wide} {
		r.Add(tu)
		if r.exact != (tu[8] == 0) {
			t.Fatalf("after adding %v: exact = %v", tu, r.exact)
		}
		if r.Add(tu) {
			t.Fatal("9-ary dedup broken")
		}
		if !r.Contains(tu) || !r.Contains(zeros) {
			t.Fatal("9-ary Contains broken")
		}
	}
}

// encode packs a tuple into a string key — the dedup encoding of the old
// map-based storage, kept as a reference oracle for dedup semantics.
func encode(t Tuple) string {
	b := make([]byte, 0, len(t)*5)
	for _, v := range t {
		if v >= 0 && v < 255 {
			b = append(b, byte(v))
		} else {
			u := uint32(v)
			b = append(b, 255, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
	}
	return string(b)
}

func TestQuickPackedDedupMatchesStringDedup(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New([]Attr{0, 1, 2})
		reference := map[string]bool{}
		for i := 0; i < 100; i++ {
			t := Tuple{
				Value(rng.Intn(300) - 10),
				Value(rng.Intn(5)),
				Value(rng.Intn(5)),
			}
			want := !reference[string(encode(t))]
			reference[string(encode(t))] = true
			if a.Add(t) != want {
				return false
			}
		}
		return a.Len() == len(reference)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
