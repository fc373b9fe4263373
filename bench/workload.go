package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/relation"
)

// query is one distinct request of a workload's pool. Text carries no
// method: the server's own routing is part of the system under test.
type query struct {
	Name string
	Text string
}

// workload is one traffic mix against one topology.
type workload struct {
	Name string
	Why  string
	// Fleet is 0 for a single projpushd, n for `projpushd -fleet n`.
	Fleet int
	Pool  []query
	// Count is the frozen timed request count of a full run, sized so
	// the timed window is about 20 s at the commit that added the
	// benchmark. Warm-up is 5 % of it.
	Count int
	// sequenceOf names the workload whose request sequences this one
	// replays byte for byte; empty means its own.
	sequenceOf string
}

// The frozen request counts (see workload.Count) and the quick run's.
const (
	countStructured = 16000
	countSelective  = 9600
	countCyclic     = 4000
	countWide       = 2000
	countFleet      = 12000
	countQuick      = 200
)

// clients is the closed loop's width: nproc is 2, one request in flight
// per client.
const clients = 2

// shapeSeed fixes the shape of everything random in the benchmark: which
// tuples join with which, and the random graphs. The run's -seed then
// relabels the values and orders the requests but does not resample, so
// join cardinalities, answer sizes and routes are the same for every
// seed. Resampled instances differ in cost by tens of percent — a
// 10-row selective head is ten Poisson draws, and 3-COLOR hardness on
// random graphs is heavy-tailed — which would drown the bounds below.
const shapeSeed = 2

// randomRel is a binary relation of `rows` random tuples over [0,dom)²
// drawn from shape, with every value v stored as label[v].
func randomRel(shape *rand.Rand, rows int, label []int) *relation.Relation {
	r := relation.New([]relation.Attr{0, 1})
	for i := 0; i < rows; i++ {
		a, b := shape.Intn(len(label)), shape.Intn(len(label))
		r.Add(relation.Tuple{relation.Value(label[a]), relation.Value(label[b])})
	}
	return r
}

// generateDB builds the one resident database every workload queries:
// the 3-COLOR edge relation, the chain relations r0..r7 (r0 is the
// 10-row selective head), the spider relations a0..a4 / b0..b4 (b0 is
// the 8-row selective arm) — the shapes of yannakakis_bench_test.go —
// and e, a denser random graph for cyclic queries. seed picks one
// relabeling per value domain.
func generateDB(seed int64) cq.Database {
	shape := rand.New(rand.NewSource(shapeSeed))
	labels := rand.New(rand.NewSource(seed))
	chain, spider, dense := labels.Perm(4000), labels.Perm(2000), labels.Perm(600)
	db := instance.ColorDatabase(3)
	for i := 0; i < 8; i++ {
		rows := 6000
		if i == 0 {
			rows = 10
		}
		db[fmt.Sprintf("r%d", i)] = randomRel(shape, rows, chain)
	}
	for i := 0; i < 5; i++ {
		db[fmt.Sprintf("a%d", i)] = randomRel(shape, 5000, spider)
		rows := 5000
		if i == 0 {
			rows = 8
		}
		db[fmt.Sprintf("b%d", i)] = randomRel(shape, rows, spider)
	}
	db["e"] = randomRel(shape, 8000, dense)
	return db
}

// writeDB serializes db in the cqparse format projpushd -db reads. The
// format requires one query clause; the server ignores it as a sample.
func writeDB(w io.Writer, db cq.Database) error {
	sample := &cq.Query{Free: []cq.Var{0}, Atoms: []cq.Atom{{Rel: "edge", Args: []cq.Var{0, 1}}}}
	return cqparse.Write(w, db, sample)
}

func queryText(q *cq.Query) string {
	var buf bytes.Buffer
	cqparse.WriteQuery(&buf, q) // a bytes.Buffer write cannot fail
	return buf.String()
}

// colorQuery is the Boolean 3-COLOR query of g (one free variable, the
// paper's emulation of a Boolean query).
func colorQuery(name string, g *graph.Graph) query {
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		panic(err) // every graph here has edges
	}
	return query{Name: name, Text: queryText(q)}
}

// joinQuery is a query over binary relations: atom i is rels[i] over
// the variable pair args[i].
func joinQuery(name string, free []cq.Var, rels []string, args [][2]cq.Var) query {
	q := &cq.Query{Free: free}
	for i, rel := range rels {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel, Args: []cq.Var{args[i][0], args[i][1]}})
	}
	return query{Name: name, Text: queryText(q)}
}

// structuredPool is the paper's traffic: Figures 6–9, orders 5 to 40.
func structuredPool() []query {
	families := []struct {
		name string
		gen  func(int) *graph.Graph
	}{
		{"augpath", graph.AugmentedPath},
		{"ladder", graph.Ladder},
		{"augladder", graph.AugmentedLadder},
		{"augcircladder", graph.AugmentedCircularLadder},
	}
	var pool []query
	for _, f := range families {
		for _, order := range []int{5, 10, 20, 40} {
			pool = append(pool, colorQuery(fmt.Sprintf("%s-%d", f.name, order), f.gen(order)))
		}
	}
	return pool
}

// selectivePool is acyclic joins with one selective relation and small
// answers: the regime the full reducer exists for.
func selectivePool() []query {
	// chain: r0(x0,x1), r1(x1,x2), ..., r7(x7,x8); r0 is selective.
	var chainRels []string
	var chainArgs [][2]cq.Var
	for i := 0; i < 8; i++ {
		chainRels = append(chainRels, fmt.Sprintf("r%d", i))
		chainArgs = append(chainArgs, [2]cq.Var{i, i + 1})
	}
	// spider: center x0, arms a_i(x0,y_i), b_i(y_i,z_i); b0 is selective.
	var spiderRels []string
	var spiderArgs [][2]cq.Var
	for i := 0; i < 5; i++ {
		y, z := 1+2*i, 2+2*i
		spiderRels = append(spiderRels, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
		spiderArgs = append(spiderArgs, [2]cq.Var{0, y}, [2]cq.Var{y, z})
	}
	// augmented path of order 6 over a0..a4 with a dangle at every path
	// vertex; the dangle at the head is the selective b0.
	var augRels []string
	var augArgs [][2]cq.Var
	for i := 0; i < 6; i++ {
		augRels = append(augRels, fmt.Sprintf("b%d", i%5))
		augArgs = append(augArgs, [2]cq.Var{i, 6 + i})
		if i < 5 {
			augRels = append(augRels, fmt.Sprintf("a%d", i))
			augArgs = append(augArgs, [2]cq.Var{i, i + 1})
		}
	}
	return []query{
		joinQuery("chain/x0,x1", []cq.Var{0, 1}, chainRels, chainArgs),
		joinQuery("chain/x0", []cq.Var{0}, chainRels, chainArgs),
		joinQuery("chain/x8", []cq.Var{8}, chainRels, chainArgs),
		joinQuery("spider/x0", []cq.Var{0}, spiderRels, spiderArgs),
		joinQuery("spider/x0,y0", []cq.Var{0, 1}, spiderRels, spiderArgs),
		joinQuery("spider/x0,z1", []cq.Var{0, 4}, spiderRels, spiderArgs),
		joinQuery("augpath/p0,p1", []cq.Var{0, 1}, augRels, augArgs),
		joinQuery("augpath/p5", []cq.Var{5}, augRels, augArgs),
	}
}

// cyclicPool is execution-bound cyclic traffic spread over every route
// of the server's threshold cascade.
func cyclicPool() []query {
	shape := rand.New(rand.NewSource(shapeSeed))
	tri := [][2]cq.Var{{0, 1}, {1, 2}, {2, 0}}
	sq := [][2]cq.Var{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	pool := []query{
		joinQuery("triangle/x", []cq.Var{0}, []string{"e", "e", "e"}, tri),
		joinQuery("triangle/x,y", []cq.Var{0, 1}, []string{"e", "e", "e"}, tri),
		joinQuery("cycle4/x", []cq.Var{0}, []string{"e", "e", "e", "e"}, sq),
		colorQuery("K4", graph.Complete(4)),
		colorQuery("K5", graph.Complete(5)),
		colorQuery("K6", graph.Complete(6)),
		colorQuery("wheel-7", graph.Wheel(7)),
		colorQuery("wheel-12", graph.Wheel(12)),
	}
	// Random graphs on both sides of the WCOJAGMLog2 cliff: a cover of
	// order n costs about n/2 · log2 6 ≈ 1.3 n bits, so order 16 stays
	// under the default 24 and orders 18–20 go over it.
	for _, order := range []int{16, 18, 19, 20} {
		for _, density := range []int{2, 3, 4} {
			for _, instance := range []string{"a", "b"} {
				g, err := graph.Random(order, density*order, shape)
				if err != nil {
					panic(err) // density ≤ 4 fits every order here
				}
				pool = append(pool, colorQuery(fmt.Sprintf("random-%d-d%d%s", order, density, instance), g))
			}
		}
	}
	return pool
}

// widePool is the same executors producing 9 k–14 k answer tuples, so
// sort, JSON encode, framing and decode dominate.
func widePool() []query {
	return []query{
		joinQuery("r1r2/x,y,z", []cq.Var{0, 1, 2}, []string{"r1", "r2"}, [][2]cq.Var{{0, 1}, {1, 2}}),
		joinQuery("r1r2/x,z", []cq.Var{0, 2}, []string{"r1", "r2"}, [][2]cq.Var{{0, 1}, {1, 2}}),
		joinQuery("r1r2r3/x,y,z,w", []cq.Var{0, 1, 2, 3}, []string{"r1", "r2", "r3"}, [][2]cq.Var{{0, 1}, {1, 2}, {2, 3}}),
		joinQuery("a0a1/x,y,z", []cq.Var{0, 1, 2}, []string{"a0", "a1"}, [][2]cq.Var{{0, 1}, {0, 2}}),
		joinQuery("a2b2/x,y,z", []cq.Var{0, 1, 2}, []string{"a2", "b2"}, [][2]cq.Var{{0, 1}, {1, 2}}),
	}
}

// generateWorkloads returns the five workloads, in run order. The pools
// do not depend on the seed (see shapeSeed); the sequences drawn from
// them do.
func generateWorkloads() []workload {
	structured := structuredPool()
	return []workload{
		{
			Name: "structured-families", Count: countStructured, Pool: structured,
			Why: "the paper's Boolean 3-COLOR families (Figures 6-9): 1-9 ms requests, under half of it execution, so parse, plan, admission and wire changes show here",
		},
		{
			Name: "selective-acyclic", Count: countSelective, Pool: selectivePool(),
			Why: "chain, spider and augmented path with a selective relation and small answers: ~80% executor time, so a kernel or routing change shows here",
		},
		{
			Name: "cyclic-dense", Count: countCyclic, Pool: cyclicPool(),
			Why: "triangles, 4-cycles, cliques, wheels and random graphs across the AGM cliff: ~90% execution spread over wcoj, stream, bucket elimination and yannakakis",
		},
		{
			Name: "wide-answer", Count: countWide, Pool: widePool(),
			Why: "2-4 free-variable joins returning 9k-14k tuples: sort, JSON encode, framing and decode dominate, so a protocol change shows here",
		},
		{
			Name: "fleet-structured", sequenceOf: "structured-families", Count: countFleet, Pool: structured, Fleet: 4,
			Why: "the byte-identical structured-families requests through coordinator to worker: the difference is the hop",
		},
	}
}

// sampler draws a client's request sequence: successive seeded
// permutations of the pool, so every distinct query is sent equally
// often and a run's mix does not depend on sampling luck.
type sampler struct {
	rng  *rand.Rand
	pool int
	perm []int // the rest of the current permutation
}

func (w *workload) sampler(seed int64, client int) *sampler {
	key := w.sequenceOf
	if key == "" {
		key = w.Name
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, key, client)
	return &sampler{rng: rand.New(rand.NewSource(int64(h.Sum64()))), pool: len(w.Pool)}
}

func (s *sampler) next() int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(s.pool)
	}
	q := s.perm[0]
	s.perm = s.perm[1:]
	return q
}
