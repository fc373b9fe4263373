// SAT: solve random 3-SAT and 2-SAT formulas as project-join queries, the
// workloads the paper's concluding remarks report as consistent with the
// 3-COLOR results. Each clause becomes one atom over a 7-tuple (3-SAT) or
// 3-tuple (2-SAT) clause-pattern relation; satisfiability is query
// nonemptiness.
//
//	go run ./examples/sat
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"projpush"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	fmt.Println("random 3-SAT, 16 variables, density sweep (bucket elimination):")
	fmt.Printf("%-9s %-9s %-7s %-12s %s\n", "density", "clauses", "width", "time", "answer")
	for _, density := range []float64{1, 2, 3, 4, 4.26, 5, 6} {
		n := 16
		m := int(density*float64(n) + 0.5)
		s, err := projpush.RandomSAT(3, n, m, rng)
		if err != nil {
			log.Fatal(err)
		}
		vars := projpush.SATVariables(s)
		q, db, err := projpush.SATQuery(s, vars[:1])
		if err != nil {
			log.Fatal(err)
		}
		p, err := projpush.BuildPlan(projpush.BucketElimination, q, rng)
		if err != nil {
			log.Fatal(err)
		}
		res, err := projpush.Execute(p, db, projpush.ExecOptions{Timeout: 20 * time.Second})
		if err != nil {
			fmt.Printf("%-9.2f %-9d %-7d %v\n", density, m, projpush.PlanWidth(p), err)
			continue
		}
		answer := "UNSAT"
		if res.Nonempty() {
			answer = "SAT"
		}
		fmt.Printf("%-9.2f %-9d %-7d %-12v %s\n",
			density, m, projpush.PlanWidth(p),
			res.Stats.Elapsed.Round(time.Microsecond), answer)
	}

	// 2-SAT: polynomial-time decidable; the project-join route handles it
	// with small widths too.
	fmt.Println("\nrandom 2-SAT, 20 variables:")
	for _, density := range []float64{0.5, 1.0, 1.5, 2.0} {
		n := 20
		m := int(density * float64(n))
		s, err := projpush.RandomSAT(2, n, m, rng)
		if err != nil {
			log.Fatal(err)
		}
		vars := projpush.SATVariables(s)
		q, db, err := projpush.SATQuery(s, vars[:1])
		if err != nil {
			log.Fatal(err)
		}
		res, err := projpush.Run(context.Background(), projpush.BucketElimination, q, db, projpush.ExecOptions{
			Timeout: 10 * time.Second,
		}, rng)
		if err != nil {
			log.Fatal(err)
		}
		answer := "UNSAT"
		if res.Nonempty() {
			answer = "SAT"
		}
		fmt.Printf("  density %.1f (%d clauses): %s in %v\n",
			density, m, answer, res.Stats.Elapsed.Round(time.Microsecond))
	}

	// A formula with a forced contradiction, to show UNSAT detection:
	// (x0) ∧ (¬x0) expressed as width-2 clauses via a fresh variable.
	contr := &projpush.SAT{NumVars: 3, Clauses: []projpush.Clause{
		{{Var: 0, Pos: true}, {Var: 1, Pos: true}},
		{{Var: 0, Pos: true}, {Var: 1, Pos: false}},
		{{Var: 0, Pos: false}, {Var: 2, Pos: true}},
		{{Var: 0, Pos: false}, {Var: 2, Pos: false}},
	}}
	vars := projpush.SATVariables(contr)
	q, db, err := projpush.SATQuery(contr, vars[:1])
	if err != nil {
		log.Fatal(err)
	}
	res, err := projpush.Run(context.Background(), projpush.BucketElimination, q, db, projpush.ExecOptions{}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nforced contradiction: satisfiable = %v (want false)\n", res.Nonempty())
}
