package relation

import (
	"errors"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"projpush/internal/faultinject"
)

// spillDirEntries lists the spill directory's contents, failing the test
// on any filesystem error.
func spillDirEntries(t *testing.T, sp *Spiller) []string {
	t.Helper()
	ents, err := os.ReadDir(sp.Dir())
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", sp.Dir(), err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// spillTestRelation builds a relation of arity ≥ 3 in the requested dedup
// regime: packed (values under 2^7, which every arity up to 9 packs) or
// hashed (values up to 2^22, over the 64/arity bits the key rule gives a
// column, force FNV keys).
func spillTestRelation(t *testing.T, rng *rand.Rand, arity, n int, packed bool) *Relation {
	t.Helper()
	attrs := make([]Attr, arity)
	for i := range attrs {
		attrs[i] = Attr(i + 1)
	}
	r := New(attrs)
	lim := 1 << 7
	if !packed {
		lim = 1 << 22
	}
	row := make(Tuple, arity)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = Value(rng.Intn(lim))
		}
		r.Add(row)
	}
	if packed != r.exact {
		t.Fatalf("generator produced exact=%v, want %v (arity %d, lim %d)", r.exact, packed, arity, lim)
	}
	return r
}

// TestSpillRoundTripBothRegimes is the spill's core property: a round
// trip is bit-identical in both dedup key regimes — same arena bytes,
// same schema, same per-column ranges — the reloaded relation comes back
// without a dedup table, and once asked membership it is in the original's
// regime and dedups correctly (Contains agrees, adding a spilled tuple
// again is a no-op).
func TestSpillRoundTripBothRegimes(t *testing.T) {
	sp, err := NewSpiller(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Cleanup()
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		name   string
		arity  int
		packed bool
		join   bool // spill a join's output: stale, its exact flag New's default
	}{
		{"packed-uint64", 3, true, false},
		{"hashed-values", 3, false, false},
		{"hashed-arity9", 9, false, false},
		{"packed-arity0", 0, true, false},
		{"hashed-join-output", 3, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var orig *Relation
			switch {
			case tc.arity == 0:
				orig = New(nil)
				orig.Add(Tuple{})
			case tc.join:
				src := spillTestRelation(t, rng, tc.arity, 200, tc.packed)
				orig = Join(src, Project(src, []Attr{1}))
			default:
				orig = spillTestRelation(t, rng, tc.arity, 200, tc.packed)
			}
			f, err := sp.WriteRelation(orig)
			if err != nil {
				t.Fatalf("WriteRelation: %v", err)
			}
			got, err := f.Load()
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			defer f.Close()
			if !got.stale || got.keys != nil {
				t.Fatal("Load built a dedup table nobody asked for")
			}
			// Asking both builds both tables, so both flags are current.
			if !got.Contains(orig.row(0)) || !orig.Contains(orig.row(0)) || got.exact != orig.exact {
				t.Fatalf("round trip lost row 0 or flipped dedup regime: exact %v -> %v", orig.exact, got.exact)
			}
			if got.n != orig.n || got.arity != orig.arity {
				t.Fatalf("shape changed: (%d,%d) -> (%d,%d)", orig.n, orig.arity, got.n, got.arity)
			}
			for i, v := range orig.data[:orig.n*orig.arity] {
				if got.data[i] != v {
					t.Fatalf("arena differs at %d: %d != %d", i, got.data[i], v)
				}
			}
			for i := range orig.attrs {
				if got.attrs[i] != orig.attrs[i] {
					t.Fatalf("attrs differ at %d", i)
				}
			}
			for i := range orig.colMin {
				if got.colMin[i] != orig.colMin[i] || got.colMax[i] != orig.colMax[i] {
					t.Fatalf("column ranges differ at %d", i)
				}
			}
			if !got.Equal(orig) {
				t.Fatal("Equal reports the reloaded relation differs")
			}
			// The rebuilt dedup table must behave like the original's:
			// every original tuple is contained and re-adding is a no-op.
			for _, tup := range orig.Tuples() {
				if !got.Contains(tup) {
					t.Fatalf("reloaded relation missing %v", tup)
				}
				if got.Add(tup) {
					t.Fatalf("reloaded relation re-admitted duplicate %v", tup)
				}
			}
		})
	}
}

// TestSpillRegimePreservedAfterMigration pins a relation that migrated to
// hashed keys (duplicate detection saw a row that does not pack): it must
// come back hashed once asked membership. No flag is stored; the restored
// ranges cover the row that forced the migration, so they decide.
func TestSpillRegimePreservedAfterMigration(t *testing.T) {
	sp, err := NewSpiller(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Cleanup()
	r := New([]Attr{1, 2, 3})
	r.Add(Tuple{1, 2, 3})
	r.Add(Tuple{3, 1 << 22, 0}) // over the 21 bits of a 3-column key: migrates to hashed keys
	if r.exact {
		t.Fatal("setup: expected hashed regime after out-of-range insert")
	}
	f, err := sp.WriteRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(Tuple{3, 1 << 22, 0}) || got.exact {
		t.Fatal("the reloaded relation did not come back in the hashed regime its ranges call for")
	}
	if !got.Equal(r) {
		t.Fatal("reloaded relation differs")
	}
}

// TestRowFileRoundTrip streams rows out and back in order, twice (chunk
// replay opens multiple readers over one file), including the arity-0
// multiplicity case.
func TestRowFileRoundTrip(t *testing.T) {
	sp, err := NewSpiller(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Cleanup()

	rf, err := sp.NewRowFile(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Tuple{{1, 2}, {3, 4}, {5, 6}, {1, 2}}
	for _, tup := range want {
		if err := rf.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.Finish(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		rd, err := rf.Reader()
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i, w := range want {
			got, err := rd.Next()
			if err != nil {
				t.Fatalf("pass %d row %d: %v", pass, i, err)
			}
			if got == nil || got[0] != w[0] || got[1] != w[1] {
				t.Fatalf("pass %d row %d: got %v, want %v", pass, i, got, w)
			}
		}
		if got, err := rd.Next(); err != nil || got != nil {
			t.Fatalf("pass %d: want clean EOF, got (%v, %v)", pass, got, err)
		}
		rd.Close()
	}
	rf.Close()

	// Zero-arity rows replay with the right multiplicity.
	zf, err := sp.NewRowFile(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := zf.Append(Tuple{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := zf.Finish(); err != nil {
		t.Fatal(err)
	}
	rd, err := zf.Reader()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		row, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		n++
	}
	rd.Close()
	zf.Close()
	if n != 3 {
		t.Fatalf("arity-0 replay yielded %d rows, want 3", n)
	}
}

// TestSpillQuota exhausts the disk budget and checks that the failure is
// typed ErrSpillFull, the partial file is removed, and closing spilled
// files refunds quota so later spills succeed.
func TestSpillQuota(t *testing.T) {
	sp, err := NewSpiller(t.TempDir(), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Cleanup()
	rng := rand.New(rand.NewSource(7))
	small := spillTestRelation(t, rng, 2, 10, true)
	big := spillTestRelation(t, rng, 4, 500, true)

	f1, err := sp.WriteRelation(small)
	if err != nil {
		t.Fatalf("small spill under quota: %v", err)
	}
	if _, err := sp.WriteRelation(big); !errors.Is(err, ErrSpillFull) {
		t.Fatalf("over-quota spill: got %v, want ErrSpillFull", err)
	}
	if got := spillDirEntries(t, sp); len(got) != 1 {
		t.Fatalf("failed spill left orphans: %v", got)
	}
	// Cumulative stats survive the failed attempt's refund.
	wrote, files := sp.Stats()
	if wrote <= 0 || files < 1 {
		t.Fatalf("Stats() = (%d, %d), want positive traffic", wrote, files)
	}
	f1.Close()
	if got := spillDirEntries(t, sp); len(got) != 0 {
		t.Fatalf("Close left files behind: %v", got)
	}
	// Freed quota is reusable.
	f2, err := sp.WriteRelation(small)
	if err != nil {
		t.Fatalf("spill after refund: %v", err)
	}
	f2.Close()
}

// TestSpillFaultInjection drives every spill.* fault point and checks
// the typed error surfaces with no orphaned temp files and no leaked
// goroutines — the graceful-degradation contract under disk faults.
func TestSpillFaultInjection(t *testing.T) {
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(11))
	rel := spillTestRelation(t, rng, 3, 100, true)

	cases := []struct {
		name string
		spec string
		want error
	}{
		{"write-fail", "spill.write.fail=1", ErrSpillIO},
		{"disk-full", "spill.full=1", ErrSpillFull},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := NewSpiller(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sp.Cleanup()
			if err := faultinject.Enable(tc.spec, 1); err != nil {
				t.Fatal(err)
			}
			defer faultinject.Disable()
			if _, err := sp.WriteRelation(rel); !errors.Is(err, tc.want) {
				t.Fatalf("WriteRelation under %s: got %v, want %v", tc.spec, err, tc.want)
			}
			if got := spillDirEntries(t, sp); len(got) != 0 {
				t.Fatalf("failed write left orphans: %v", got)
			}
			// RowFile path fails the same way and Close cleans up.
			rf, err := sp.NewRowFile(3)
			if err != nil {
				t.Fatal(err)
			}
			if err := rf.Append(Tuple{1, 2, 3}); !errors.Is(err, tc.want) {
				t.Fatalf("Append under %s: got %v, want %v", tc.spec, err, tc.want)
			}
			rf.Close()
			if got := spillDirEntries(t, sp); len(got) != 0 {
				t.Fatalf("closed row stream left orphans: %v", got)
			}
		})
	}

	t.Run("read-fail", func(t *testing.T) {
		sp, err := NewSpiller(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Cleanup()
		f, err := sp.WriteRelation(rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := faultinject.Enable("spill.read.fail=1", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Load(); !errors.Is(err, ErrSpillIO) {
			faultinject.Disable()
			t.Fatalf("Load under spill.read.fail: got %v, want ErrSpillIO", err)
		}
		faultinject.Disable()
		// The file survives a failed read; a clean retry succeeds.
		if _, err := f.Load(); err != nil {
			t.Fatalf("Load after fault cleared: %v", err)
		}
		f.Close()
	})

	t.Run("slow", func(t *testing.T) {
		sp, err := NewSpiller(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Cleanup()
		if err := faultinject.Enable("spill.slow=5ms:1", 1); err != nil {
			t.Fatal(err)
		}
		defer faultinject.Disable()
		start := time.Now()
		f, err := sp.WriteRelation(rel)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if d := time.Since(start); d < 5*time.Millisecond {
			t.Fatalf("spill.slow injected no latency (%v)", d)
		}
	})

	// No goroutines survive the drills (spilling is synchronous).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestSpillRealDiskFull exercises the genuine ENOSPC path: with
// SPILL_ENOSPC_DIR pointing at a small quota'd filesystem (CI mounts a
// 16MiB tmpfs), an unquota'd spiller writing rows without bound must
// eventually surface the kernel's out-of-space error as ErrSpillFull —
// the same typed failure the byte-quota path reports — and abort
// cleanly. Skipped when the environment variable is unset.
func TestSpillRealDiskFull(t *testing.T) {
	dir := os.Getenv("SPILL_ENOSPC_DIR")
	if dir == "" {
		t.Skip("SPILL_ENOSPC_DIR not set; needs a quota'd filesystem to exhaust")
	}
	sp, err := NewSpiller(dir, 0) // no byte quota: only the disk can say no
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Cleanup()
	rf, err := sp.NewRowFile(8)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	row := Tuple{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 1<<22; i++ { // 128MiB of rows, far past any small quota
		if err = rf.Append(row); err != nil {
			break
		}
	}
	if err == nil {
		err = rf.Finish()
	}
	if !errors.Is(err, ErrSpillFull) {
		t.Fatalf("filling a quota'd disk: got %v, want ErrSpillFull", err)
	}
}

// TestSpillCleanupRemovesDirectory checks the wholesale cleanup path.
func TestSpillCleanupRemovesDirectory(t *testing.T) {
	sp, err := NewSpiller(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, err := sp.WriteRelation(spillTestRelation(t, rng, 2, 20, true)); err != nil {
		t.Fatal(err)
	}
	sp.Cleanup()
	if _, err := os.Stat(sp.Dir()); !os.IsNotExist(err) {
		t.Fatalf("Cleanup left the spill directory: %v", err)
	}
}
