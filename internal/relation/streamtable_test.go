package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// streamTableReference answers the same probes with a string-keyed map —
// the implementation StreamTable replaced in the engine's iterator
// executor — so the kernel can be checked differentially.
func streamTableReference(rows []Tuple, keyPos []int, probe Tuple, probePos []int) []string {
	key := func(t Tuple, pos []int) string {
		s := ""
		for _, p := range pos {
			s += fmt.Sprintf("%d|", t[p])
		}
		return s
	}
	want := key(probe, probePos)
	var out []string
	for _, r := range rows {
		if key(r, keyPos) == want {
			out = append(out, fmt.Sprint(r))
		}
	}
	sort.Strings(out)
	return out
}

func collectMatches(st *StreamTable, probe Tuple, probePos []int) []string {
	var out []string
	m := st.Probe(probe, probePos)
	for t := m.Next(); t != nil; t = m.Next() {
		out = append(out, fmt.Sprint(t))
	}
	sort.Strings(out)
	return out
}

func TestStreamTableDifferential(t *testing.T) {
	// Three value regimes over a 3-column key (21 bits a value): packed
	// stays packed, "wide" forces migration to FNV keys mid-build, "mixed"
	// interleaves both so packed inserts precede and follow the migration
	// point.
	regimes := []struct {
		name   string
		gen    func(rng *rand.Rand) Value
		packed bool
	}{
		{"packed", func(rng *rand.Rand) Value { return Value(rng.Intn(5)) }, true},
		{"wide", func(rng *rand.Rand) Value { return Value(rng.Intn(1<<23) - 1<<22) }, false},
		{"mixed", func(rng *rand.Rand) Value {
			if rng.Intn(4) == 0 {
				return Value(rng.Intn(1 << 23))
			}
			return Value(rng.Intn(5))
		}, false},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			const arity = 4
			keyPos := []int{0, 2, 3}
			probePos := []int{1, 0, 2}
			var rows []Tuple
			st := NewStreamTable(arity, keyPos)
			for i := 0; i < 500; i++ {
				r := Tuple{reg.gen(rng), reg.gen(rng), reg.gen(rng), reg.gen(rng)}
				rows = append(rows, r)
				st.Insert(r)
			}
			if st.n != len(rows) || st.packed != reg.packed {
				t.Fatalf("rows = %d packed = %v, want %d and %v", st.n, st.packed, len(rows), reg.packed)
			}
			for i := 0; i < 300; i++ {
				probe := Tuple{reg.gen(rng), reg.gen(rng), reg.gen(rng)}
				got := collectMatches(st, probe, probePos)
				want := streamTableReference(rows, keyPos, probe, probePos)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("probe %v: got %v want %v", probe, got, want)
				}
			}
		})
	}
}

func TestStreamTableOutOfRangeProbe(t *testing.T) {
	st := NewStreamTable(3, []int{0, 1, 2})
	st.Insert(Tuple{1, 1, 1})
	st.Insert(Tuple{2, 2, 2})
	// Packed build side, a probe that does not pack (negative, or over
	// the 21 bits of a 3-column key): must short-circuit to no matches,
	// not hash.
	for _, probe := range []Tuple{{1, 1, -1}, {2, 2, 1 << 21}} {
		if got := collectMatches(st, probe, []int{0, 1, 2}); got != nil {
			t.Fatalf("probe %v matched %v", probe, got)
		}
	}
	if got := collectMatches(st, Tuple{2, 2, 2}, []int{0, 1, 2}); len(got) != 1 || !st.packed {
		t.Fatalf("packed probe matched %v (packed=%v), want one row", got, st.packed)
	}
}

func TestStreamTableEmptyAndMisuse(t *testing.T) {
	st := NewStreamTable(2, []int{0})
	if got := collectMatches(st, Tuple{1}, []int{0}); got != nil {
		t.Fatalf("empty table matched %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert after Probe did not panic")
		}
	}()
	st.Insert(Tuple{1, 2})
}

// TestStreamTableZeroArity pins the arity-0 regression: a Boolean
// subresult builds rows with no columns, and matches must still surface
// as non-nil empty tuples rather than reading as table exhaustion.
func TestStreamTableZeroArity(t *testing.T) {
	st := NewStreamTable(0, nil)
	st.Insert(Tuple{})
	m := st.Probe(Tuple{5, 6}, nil)
	got := 0
	for tup := m.Next(); tup != nil; tup = m.Next() {
		if len(tup) != 0 {
			t.Fatalf("zero-arity match has %d columns", len(tup))
		}
		got++
	}
	if got != 1 {
		t.Fatalf("zero-arity probe matched %d rows, want 1", got)
	}
}
