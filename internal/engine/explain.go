package engine

import (
	"context"
	"fmt"
	"strings"

	"projpush/internal/cq"
	"projpush/internal/plan"
)

// explainWalker renders a plan as an indented operator tree, one line per
// node with its output schema and arity — the structural facts the paper's
// analysis runs on. When analyze is true the plan is executed under opt
// and each line is annotated with the actual output cardinality, in the
// spirit of EXPLAIN ANALYZE on the paper's backend.
func explainWalker(p plan.Node, db cq.Database, opt Options, analyze bool) (string, error) {
	var ex *executor
	if analyze {
		ex = newExecutor(context.Background(), db, opt)
		ex.rows = make(map[plan.Node]int)
		if _, err := ex.run(p); err != nil {
			return "", err
		}
	}
	var b strings.Builder
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		indent := strings.Repeat("  ", depth)
		label := ""
		switch t := n.(type) {
		case *plan.Scan:
			label = t.Atom.String()
		case *plan.Join:
			label = "⋈"
		case *plan.Project:
			label = "π" + varList(t.Cols)
		}
		fmt.Fprintf(&b, "%s%s  arity=%d", indent, label, len(n.Attrs()))
		if analyze {
			if rows, ok := ex.rows[n]; ok {
				fmt.Fprintf(&b, " rows=%d", rows)
			}
		}
		b.WriteString("\n")
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	if analyze {
		fmt.Fprintf(&b, "memory: %d bytes materialized, peak %d live", ex.stats.Bytes, ex.stats.PeakBytes)
		if opt.MaxBytes > 0 {
			fmt.Fprintf(&b, " (budget %d)", opt.MaxBytes)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "tuples: materialized=%d reduced=%d\n",
			ex.stats.MaterializedTuples, ex.stats.ReducedTuples)
	}
	return b.String(), nil
}

// explainYannakakis renders the full-reducer join tree: one line per bag
// with its working and projected labels and the atoms it hosts. When
// analyze is true the sweep executes under opt, the header names the seed
// bag the walk started from and its rows, and each bag line is annotated
// with its per-phase cardinalities — rows when the bag relation was
// formed, after the seed walk reduced it (⋉→, only on bags the walk
// reached whole), after the bottom-up sweep (⋉↑), after the top-down sweep
// (⋉↓), and the evaluated output — followed by the semijoins each phase
// ran and skipped as provably empty, and the run's reduced-vs-materialized
// totals. On a bag hosting two or more atoms each atom carries [rows after
// bind ⋉→rows after the walk filtered it] from before the bag's join, and
// rows= is the size of that join.
func explainYannakakis(y *yannakakis, db cq.Database, opt Options, analyze bool) (string, error) {
	var ex *yexec
	var b strings.Builder
	fmt.Fprintf(&b, "yannakakis full reducer  width=%d", y.s.Tree.Width())
	t := &ytree{jt: y.s.Tree}
	t.add(t.jt.Root, -1)
	if analyze {
		var err error
		if _, ex, err = y.exec(context.Background(), db, opt); err != nil {
			return "", err
		}
		t = ex.t
		fmt.Fprintf(&b, "  seed %s rows=%d", varList(t.bags[t.seed].node.Working), ex.bags[t.seed].bound)
	}
	b.WriteString("\n")
	var walk func(i, depth int)
	walk = func(i, depth int) {
		n := &t.bags[i]
		fmt.Fprintf(&b, "%sbag %s → π%s", strings.Repeat("  ", depth+1), varList(n.node.Working), varList(n.node.Projected))
		for k := n.lo; k < n.hi; k++ {
			fmt.Fprintf(&b, "  %s", t.atoms[k])
			if analyze && n.hi-n.lo > 1 {
				fmt.Fprintf(&b, "[%d", ex.t.views[k].Len())
				if w := ex.atoms[k].walked; w >= 0 {
					fmt.Fprintf(&b, " ⋉→%d", w)
				}
				b.WriteString("]")
			}
		}
		if analyze {
			bag := &ex.bags[i]
			if bag.bound >= 0 {
				fmt.Fprintf(&b, "  rows=%d", bag.bound)
				if bag.walked >= 0 {
					fmt.Fprintf(&b, " ⋉→%d", bag.walked)
				}
				fmt.Fprintf(&b, " ⋉↑%d ⋉↓%d", bag.afterUp, bag.afterDown)
			}
			if bag.out >= 0 {
				fmt.Fprintf(&b, " out=%d", bag.out)
			}
		}
		b.WriteString("\n")
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(0, 0)
	if analyze {
		sj := ex.semijoins
		fmt.Fprintf(&b, "semijoins: ⋉→ ran=%d skipped=%d  ⋉↑ ran=%d skipped=%d  ⋉↓ ran=%d skipped=%d\n",
			sj[0][0], sj[0][1], sj[1][0], sj[1][1], sj[2][0], sj[2][1])
		fmt.Fprintf(&b, "reduced: %d tuples removed by semijoins\n", ex.stats.ReducedTuples)
		fmt.Fprintf(&b, "materialized: %d tuples, %d bytes", ex.stats.MaterializedTuples, ex.stats.Bytes)
		if opt.MaxBytes > 0 {
			fmt.Fprintf(&b, " (budget %d)", opt.MaxBytes)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// explainWCOJ renders the worst-case-optimal executor's variable order:
// one line per variable level with the atoms whose intersection
// constrains it, levels past the free prefix marked ∃ (existence-checked
// only — the executor's early projection). When analyze is true the join
// executes under opt and each level is annotated with its seek and
// extension counts, followed by the run's totals and the memory/tuples
// trailers the other executors report.
func explainWCOJ(l *leapfrog, db cq.Database, opt Options, analyze bool) (string, error) {
	var ex *wexec
	p, err := l.plan(db)
	if analyze {
		_, ex, err = l.exec(context.Background(), db, opt)
		p = ex.p
	}
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wcoj leapfrog  vars=%d free=%d atoms=%d\n",
		len(p.vars), p.freeCut, len(p.atoms))
	for d, v := range p.vars {
		mark := ""
		if d >= p.freeCut {
			mark = " ∃"
		}
		fmt.Fprintf(&b, "  level x%d%s ", v, mark)
		for _, e := range p.levels[d] {
			fmt.Fprintf(&b, " %s", &p.q.Atoms[e.atom])
		}
		if analyze {
			fmt.Fprintf(&b, "  seeks=%d extensions=%d", ex.seeks[d], ex.extensions[d])
		}
		b.WriteString("\n")
	}
	if analyze {
		fmt.Fprintf(&b, "seeks: total=%d extensions=%d\n", ex.stats.Seeks, ex.stats.Extensions)
		fmt.Fprintf(&b, "indexes: %d shared by %d atoms\n", ex.indexes, len(p.atoms))
		fmt.Fprintf(&b, "memory: %d bytes materialized, peak %d live", ex.stats.Bytes, ex.stats.PeakBytes)
		if opt.MaxBytes > 0 {
			fmt.Fprintf(&b, " (budget %d)", opt.MaxBytes)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "tuples: materialized=%d reduced=%d\n",
			ex.stats.MaterializedTuples, ex.stats.ReducedTuples)
	}
	return b.String(), nil
}

func varList(vs []cq.Var) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("x%d", v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
