package relation

import (
	"encoding/binary"
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

// FuzzStreamBuild checks the three ways a pipeline build can hold its
// rows against each other and against the string-keyed reference: rows
// copied into a StreamTable, an arena adopted in place
// (NewStreamTableOver), and a stored arena probed through its column
// index (NewStreamTableResident). The input picks the arity (1–4), the
// key columns and their order, and the rows; values are either masked to
// [0, 4), where every key packs, or raw int32s, which at three or more
// key columns mostly do not (key.go).
func FuzzStreamBuild(f *testing.F) {
	f.Add([]byte{1, 3, 1, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{2, 0x47, 0, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0x20, 0, 1, 0, 0, 0,
		0xff, 0xff, 0xff, 0x7f, 0, 0, 0x20, 0, 2, 0, 0, 0, 0, 0, 0, 0x80, 5, 0, 0, 0, 7, 0, 0, 0})
	f.Add([]byte{3, 0xcd, 1, 9, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0,
		2, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		arity := 1 + int(data[0])%4
		var keyPos []int
		for j := 0; j < arity; j++ {
			if data[1]>>j&1 == 1 {
				keyPos = append(keyPos, j)
			}
		}
		if len(keyPos) == 0 {
			keyPos = []int{int(data[1]>>4) % arity}
		}
		// The resident table indexes its first key column: rotate so any
		// key column can be first.
		rot := int(data[1]>>6) % len(keyPos)
		keyPos = append(keyPos[rot:], keyPos[:rot]...)
		small := data[2]&1 == 1
		data = data[3:]
		r := New(identityCols(arity))
		row := make(Tuple, arity)
		for len(data) >= 4*arity && r.Len() < 128 {
			for j := range row {
				row[j] = Value(binary.LittleEndian.Uint32(data[4*j:]))
				if small {
					row[j] &= 3
				}
			}
			data = data[4*arity:]
			r.Add(row)
		}
		rows := r.Tuples()
		copied := NewStreamTable(arity, keyPos)
		for _, row := range rows {
			copied.Insert(row)
		}
		copied.Freeze()
		tables := []struct {
			name string
			st   *StreamTable
		}{
			{"copied", copied},
			{"adopted", NewStreamTableOver(r, keyPos)},
			{"resident", NewStreamTableResident(r, keyPos)},
		}
		// Probe with every stored key, the key with its last value moved
		// by one, and the key with its first value out of every packed
		// range: hits, near misses and regime misses.
		probePos := identityCols(len(keyPos))
		for _, row := range rows {
			key := make(Tuple, len(keyPos))
			for i, p := range keyPos {
				key[i] = row[p]
			}
			near, far := key.Clone(), key.Clone()
			near[len(near)-1]++
			far[0] ^= 1 << 30
			for _, probe := range []Tuple{key, near, far} {
				want := fmt.Sprint(streamTableReference(rows, keyPos, probe, probePos))
				for _, tb := range tables {
					if got := fmt.Sprint(collectMatches(tb.st, probe, probePos)); got != want {
						t.Fatalf("%s build, key %v, probe %v: got %v want %v", tb.name, keyPos, probe, got, want)
					}
				}
			}
		}
	})
}
