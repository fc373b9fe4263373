package faultinject

import (
	"sync"
	"testing"
	"time"
)

// drain records which of the first n calls to p fire.
func drain(p Point, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = FailAlloc(p)
	}
	return out
}

func TestDisabledIsNoOp(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() after Disable")
	}
	for i := 0; i < 1000; i++ {
		if FailAlloc(AllocJoin) {
			t.Fatal("disabled injection fired")
		}
	}
	Panic(PanicJoin)     // must not panic
	Sleep(LatencyKernel) // must not sleep
}

func TestDeterministicFiringSet(t *testing.T) {
	defer Disable()
	if err := Enable("join.alloc=0.25", 42); err != nil {
		t.Fatal(err)
	}
	first := drain(AllocJoin, 2000)
	Panic(PanicJoin) // unarmed: not a draw
	if Calls(AllocJoin) != 2000 || Calls(PanicJoin) != 0 {
		t.Fatalf("Calls = %d join.alloc, %d join.panic; want 2000, 0", Calls(AllocJoin), Calls(PanicJoin))
	}
	if err := Enable("join.alloc=0.25", 42); err != nil {
		t.Fatal(err)
	}
	second := drain(AllocJoin, 2000)
	fired := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("call %d diverged across identical (spec, seed)", i)
		}
		if first[i] {
			fired++
		}
	}
	if fired < 2000/8 || fired > 2000/2 {
		t.Fatalf("p=0.25 fired %d/2000 times", fired)
	}

	// A different seed fires a different set.
	if err := Enable("join.alloc=0.25", 43); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i, f := range drain(AllocJoin, 2000) {
		if f != first[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed change did not perturb the firing set")
	}
}

func TestPointsAreIndependent(t *testing.T) {
	defer Disable()
	if err := Enable("join.panic=1", 1); err != nil {
		t.Fatal(err)
	}
	if FailAlloc(AllocJoin) {
		t.Fatal("unconfigured point fired")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("join.panic=1 did not panic")
		}
	}()
	Panic(PanicJoin)
}

func TestLatencySpec(t *testing.T) {
	defer Disable()
	if err := Enable("kernel.latency=5ms:1", 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	Sleep(LatencyKernel)
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Fatalf("latency injection slept %v, want >= ~5ms", d)
	}
}

func TestSpecErrors(t *testing.T) {
	defer Disable()
	// The last entry names a deleted point: a drill spec written for a
	// layer that is gone must fail as an unknown point, not arm nothing.
	for _, bad := range []string{"nope=0.5", "join.alloc", "join.alloc=2", "kernel.latency=xx:0.5", "spill.write.fail=0.1"} {
		if err := Enable(bad, 1); err == nil {
			t.Errorf("Enable(%q) accepted", bad)
		}
	}
	if err := Enable("", 1); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}

// TestConcurrentChecks exercises the counter path under -race.
func TestConcurrentChecks(t *testing.T) {
	defer Disable()
	if err := Enable("join.alloc=0.5", 9); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				FailAlloc(AllocJoin)
			}
		}()
	}
	wg.Wait()
}
