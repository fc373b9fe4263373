package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

// fleetCase is a query text plus its oracle answer, mirroring the
// single-server chaos drill's differential setup: free variables make
// the answers real relations, and each oracle is computed once up
// front with no faults armed.
type fleetCase struct {
	name   string
	text   string
	tuples [][]int32
}

func buildFleetCases(t *testing.T, db cq.Database) []fleetCase {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"augpath4", graph.AugmentedPath(4)},
		{"augpath5", graph.AugmentedPath(5)},
		{"ladder3", graph.Ladder(3)},
		{"cycle5", graph.Cycle(5)},
	}
	var cases []fleetCase
	for _, gc := range graphs {
		free := instance.ChooseFree(instance.EdgeVertices(gc.g), 0.3, rng)
		q, err := instance.ColorQuery(gc.g, free)
		if err != nil {
			t.Fatalf("%s: ColorQuery: %v", gc.name, err)
		}
		var buf bytes.Buffer
		if err := cqparse.WriteQuery(&buf, q); err != nil {
			t.Fatalf("%s: WriteQuery: %v", gc.name, err)
		}
		oracle, err := engine.EvalOracle(q, db)
		if err != nil {
			t.Fatalf("%s: EvalOracle: %v", gc.name, err)
		}
		sorted := oracle.SortedTuples()
		tuples := make([][]int32, len(sorted))
		for i, tup := range sorted {
			row := make([]int32, len(tup))
			for j, v := range tup {
				row[j] = int32(v)
			}
			tuples[i] = row
		}
		cases = append(cases, fleetCase{name: gc.name, text: buf.String(), tuples: tuples})
	}
	return cases
}

// sameTuples compares an answer received in the executor's row order
// with the oracle's sorted rows: it sorts a copy of got, then checks row
// count, arity and every value.
func sameTuples(got, sorted [][]int32) bool {
	got = slices.Clone(got)
	slices.SortFunc(got, slices.Compare[[]int32])
	return slices.EqualFunc(got, sorted, slices.Equal[[]int32])
}

// TestFleetDifferentialAgainstOracle pins the fleet's answers to the
// single-process oracle over the paper's Figure 6–9 query families: a
// healthy 3-worker fleet, no faults, every answer differentially equal,
// and the affinity sharding stable — repeats of a query land on the
// same worker every time.
func TestFleetDifferentialAgainstOracle(t *testing.T) {
	db := instance.ColorDatabase(3)
	cases := buildFleetCases(t, db)

	fl, err := StartFleet("127.0.0.1:0", FleetConfig{
		Workers: 3,
		Worker: server.Config{
			DB:             db,
			MaxConcurrent:  4,
			RequestTimeout: 5 * time.Second,
		},
		Coordinator:   Config{RequestTimeout: 5 * time.Second},
		ChaosInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	c := client.New(client.Options{Addr: fl.Addr(), AttemptTimeout: 5 * time.Second})
	shard := make(map[string]string)
	for round := 0; round < 3; round++ {
		for _, cse := range cases {
			resp, err := c.Query(context.Background(), cse.text, "")
			if err != nil {
				t.Fatalf("round %d %s: %v", round, cse.name, err)
			}
			if resp.Status != server.StatusOK {
				t.Fatalf("round %d %s: status %s (%s)", round, cse.name, resp.Status, resp.Error)
			}
			if resp.Answer == nil || !sameTuples(resp.Answer.Tuples, cse.tuples) {
				t.Errorf("round %d %s: fleet answer differs from the oracle", round, cse.name)
			}
			if resp.Worker == "" {
				t.Fatalf("round %d %s: answer not stamped with its worker", round, cse.name)
			}
			if prev, ok := shard[cse.name]; ok && prev != resp.Worker {
				t.Errorf("%s: affinity moved from %s to %s on a healthy fleet", cse.name, prev, resp.Worker)
			}
			shard[cse.name] = resp.Worker
			if resp.Failovers != 0 || resp.Hedged {
				t.Errorf("round %d %s: failovers=%d hedged=%v on a healthy fleet",
					round, cse.name, resp.Failovers, resp.Hedged)
			}
		}
	}
	t.Logf("affinity shards: %v", shard)
}

// TestFleetSharedCompileUnderWorkerLoss fires 8 clients × the same texts at
// a fresh 4-worker fleet, so that each worker compiles a text of its shard
// once and shares it across goroutines, aborts a worker mid-run (its shard
// fails over to the next replica, which compiles the text then), and
// finally aborts the rest: the coordinator parses and rescues every text
// locally. Every answer equals the oracle's throughout. Under -race it is
// the fleet half of the proof that compiled values are read-only.
func TestFleetSharedCompileUnderWorkerLoss(t *testing.T) {
	db := instance.ColorDatabase(3)
	cases := buildFleetCases(t, db)
	const workers = 4
	fl, err := StartFleet("127.0.0.1:0", FleetConfig{
		Workers: workers,
		Worker:  server.Config{DB: db, MaxConcurrent: 8, RequestTimeout: 5 * time.Second},
		Coordinator: Config{
			RequestTimeout: 5 * time.Second,
			LocalFallback:  true,
			HealthInterval: 20 * time.Millisecond,
		},
		ChaosInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	check := func(who string, cse fleetCase, resp *server.Response, err error) {
		if err != nil {
			t.Errorf("%s %s: %v", who, cse.name, err)
			return
		}
		if resp.Status != server.StatusOK && resp.Status != server.StatusDegraded {
			t.Errorf("%s %s: status %s (%s)", who, cse.name, resp.Status, resp.Error)
			return
		}
		if resp.Answer == nil || !sameTuples(resp.Answer.Tuples, cse.tuples) {
			t.Errorf("%s %s: answer differs from the oracle (status %s, worker %s)", who, cse.name, resp.Status, resp.Worker)
		}
	}
	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := client.New(client.Options{Addr: fl.Addr(), AttemptTimeout: 5 * time.Second})
			for round := 0; round < rounds; round++ {
				if g == 0 && round == rounds/2 {
					fl.Kill(0)
				}
				for i := range cases {
					cse := cases[(i+g)%len(cases)]
					resp, err := c.Query(context.Background(), cse.text, "")
					check(fmt.Sprintf("client %d round %d", g, round), cse, resp, err)
				}
			}
		}(g)
	}
	wg.Wait()

	for i := 1; i < workers; i++ {
		fl.Kill(i)
	}
	c := client.New(client.Options{Addr: fl.Addr(), AttemptTimeout: 5 * time.Second})
	for _, cse := range cases {
		resp, err := c.Query(context.Background(), cse.text, "")
		check("fleet gone", cse, resp, err)
		if err == nil && (resp.Status != server.StatusDegraded || resp.Worker != "local") {
			t.Errorf("fleet gone %s: status %s from %q, want a local rescue", cse.name, resp.Status, resp.Worker)
		}
	}
	h := fl.Coordinator().health()
	if h.Rescued != int64(len(cases)) {
		t.Errorf("coordinator rescued %d, want %d", h.Rescued, len(cases))
	}
}
