package relation

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// checkJoinProject holds JoinProjectLimited to the two kernels it fuses,
// for both argument orders, in every arm of kernelArms (private relations,
// and views whose stored arena's sorted or column index is read), onto
// every subset of the join's attributes in schema order and the whole
// schema reversed: the output is ProjectLimited(JoinLimited(...)) as a
// set, the join's row count is that join's, and both the output's bytes
// and the bytes it charged are at most the two kernels' (the join's output
// plus the projection's), so a budget of exactly their charge never fails
// it. It returns how many projections it checked.
func checkJoinProject(t *testing.T, r, o *Relation) int {
	t.Helper()
	checked := 0
	for _, pair := range [][2]*Relation{{r, o}, {o, r}} {
		for _, arm := range kernelArms(pair[0], pair[1]) {
			attrs := Join(arm.r, arm.o).Attrs()
			for mask := 0; mask < 1<<len(attrs); mask++ {
				keep := []Attr{} // not nil, which keeps every column
				for i, a := range attrs {
					if mask>>i&1 != 0 {
						keep = append(keep, a)
					}
				}
				if len(keep) == len(attrs) {
					slices.Reverse(keep)
				}
				var twoCharged, charged atomic.Int64
				budget := &Limit{MaxBytes: 1 << 40, Bytes: &twoCharged}
				joined, err := JoinLimited(arm.r, arm.o, budget)
				if err != nil {
					t.Fatal(err)
				}
				joinedBytes := joined.Bytes()
				want, err := ProjectLimited(joined, keep, budget)
				if err != nil {
					t.Fatal(err)
				}
				two := joinedBytes + want.Bytes()
				got, rows, err := JoinProjectLimited(arm.r, arm.o, keep, &Limit{MaxBytes: twoCharged.Load(), Bytes: &charged})
				if err != nil {
					t.Fatalf("%s onto %v, under the two kernels' charge of %d: %v (r=%v o=%v)", arm.name, keep, twoCharged.Load(), err, arm.r, arm.o)
				}
				if bytes := got.Bytes(); bytes > two || charged.Load() > twoCharged.Load() {
					t.Fatalf("%s onto %v: %d bytes, %d charged; the two kernels' %d bytes, %d charged (r=%v o=%v)",
						arm.name, keep, bytes, charged.Load(), two, twoCharged.Load(), arm.r, arm.o)
				}
				if rows != joined.Len() || !slices.Equal(got.Attrs(), keep) || !got.Equal(want) {
					t.Fatalf("%s onto %v: %v of a %d-row join, the two kernels %v of %d (r=%v o=%v)",
						arm.name, keep, got, rows, want, joined.Len(), arm.r, arm.o)
				}
				checked++
			}
		}
	}
	return checked
}

// TestJoinProjectMatchesTwoKernels drives checkJoinProject over joins at
// arities 1–3 a side on one shared column, dense (a view's sorted index is
// read), sparse (its column index is probed) and negative, and on two
// shared columns (a table is built). Values in [-3, 40) make a projection
// of three or more columns hash its dedup keys.
func TestJoinProjectMatchesTwoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	leads := []func(i int) Value{
		func(int) Value { return Value(rng.Intn(20)) },
		func(int) Value { return Value(rng.Intn(20)) * 100_003 },
		func(int) Value { return Value(-rng.Intn(20) - 1_000_000) },
	}
	checked := 0
	for _, lead := range leads {
		for trial := 0; trial < 12; trial++ {
			ra, oa := 1+trial%3, 1+trial/3%3
			rAttrs, oAttrs := []Attr{0}, []Attr{0}
			for j := 1; j < ra; j++ {
				rAttrs = append(rAttrs, Attr(j))
			}
			for j := 1; j < oa; j++ {
				oAttrs = append(oAttrs, Attr(10*(trial%2)+j)) // odd trials share column 1 too
			}
			r := keyedRelation(rng, rAttrs, 30+rng.Intn(40), lead)
			o := keyedRelation(rng, oAttrs, rng.Intn(40), lead)
			checked += checkJoinProject(t, Project(r, rotate(r.Attrs(), rng.Intn(ra))), Project(o, rotate(o.Attrs(), rng.Intn(oa))))
		}
	}
	t.Logf("%d projections checked", checked)
}

// FuzzJoinProject reads two relations as FuzzJoinResident does and checks
// every projection of their join with checkJoinProject.
func FuzzJoinProject(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 1, 0, 2, 0, 0, 0, 0, 0}, []byte{1, 0, 0, 1, 0, 2, 0})
	f.Add([]byte{3, 1, 20, 1, 0, 1, 0, 1, 0, 9, 0, 1, 0, 2, 0}, []byte{2, 1, 20, 1, 0, 1, 0, 9, 0, 3, 0})
	f.Add([]byte{3, 2, 0, 0xff, 0xff, 1, 0, 0, 0x80, 2, 0, 1, 0, 0, 0x80}, []byte{3, 0, 0, 1, 0, 0xff, 0xff, 0, 0x40})
	f.Fuzz(func(t *testing.T, rb, ob []byte) {
		checkJoinProject(t, fuzzRelation(rb, 0), fuzzRelation(ob, 10))
	})
}
