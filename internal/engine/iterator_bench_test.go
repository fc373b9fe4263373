package engine

import (
	"testing"

	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// benchWorkload builds a figure workload: the method's plan for 3-COLOR
// of the order-8 augmented path, over the 3-coloring database.
func benchWorkload(b *testing.B, m core.Method) (plan.Node, cq.Database) {
	b.Helper()
	g := graph.AugmentedPath(8)
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildPlan(m, q, nil)
	if err != nil {
		b.Fatal(err)
	}
	return p, instance.ColorDatabase(3)
}

// mapStringJoin is the iterator executor's former hash-join inner loop:
// a map[string][]Tuple build table keyed by raw-byte string keys, with
// per-match output assembly. Kept as the benchmark baseline for the port
// onto relation.StreamTable.
func mapStringJoin(build, probe []relation.Tuple, buildKey, probeKey []int) int {
	key := func(t relation.Tuple, pos []int) string {
		buf := make([]byte, 0, 4*len(pos))
		for _, p := range pos {
			v := uint32(t[p])
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return string(buf)
	}
	table := make(map[string][]relation.Tuple, len(build))
	for _, t := range build {
		k := key(t, buildKey)
		table[k] = append(table[k], t.Clone())
	}
	matches := 0
	for _, t := range probe {
		for range table[key(t, probeKey)] {
			matches++
		}
	}
	return matches
}

// streamTableJoin is the same join on the ported kernel.
func streamTableJoin(build, probe []relation.Tuple, buildKey, probeKey []int) int {
	st := relation.NewStreamTable(len(build[0]), buildKey)
	for _, t := range build {
		st.Insert(t)
	}
	matches := 0
	for _, t := range probe {
		m := st.Probe(t, probeKey)
		for r := m.Next(); r != nil; r = m.Next() {
			matches++
		}
	}
	return matches
}

// BenchmarkEngineIterJoin measures the iterator executor's hash-join
// kernel before and after the port: string keys into a Go map versus the
// packed-uint64 open-addressing StreamTable.
func BenchmarkEngineIterJoin(b *testing.B) {
	mkRows := func(n, domain, seed int) []relation.Tuple {
		rows := make([]relation.Tuple, n)
		s := uint64(seed)
		for i := range rows {
			t := make(relation.Tuple, 3)
			for j := range t {
				s = s*6364136223846793005 + 1442695040888963407
				t[j] = relation.Value((s >> 33) % uint64(domain))
			}
			rows[i] = t
		}
		return rows
	}
	build := mkRows(20000, 40, 1)
	probe := mkRows(20000, 40, 2)
	buildKey, probeKey := []int{0, 1}, []int{1, 2}

	want := mapStringJoin(build, probe, buildKey, probeKey)
	if got := streamTableJoin(build, probe, buildKey, probeKey); got != want {
		b.Fatalf("kernels disagree: %d vs %d matches", got, want)
	}

	b.Run("streamtable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			streamTableJoin(build, probe, buildKey, probeKey)
		}
	})
	b.Run("mapstring-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapStringJoin(build, probe, buildKey, probeKey)
		}
	})
}

// BenchmarkEngineIterExec measures the pull pipeline without the pushdown
// phase (ExecIterator) on a figure workload — the end-to-end path the
// StreamTable port feeds.
func BenchmarkEngineIterExec(b *testing.B) {
	p, db := benchWorkload(b, core.MethodEarlyProjection)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExecIterator(p, db, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
