package memo

import (
	"fmt"
	"sync"
	"testing"
)

// TestGenerations walks the two-generation policy: a working set under
// half the budget stays resident however often it is read, a hit in the
// old generation brings the value back to the young one, what is neither
// written nor read for a whole generation is dropped, and the accounted
// bytes never pass the budget.
func TestGenerations(t *testing.T) {
	m := New[int](1000)
	key := func(i int) Key { return Key{Text: fmt.Sprintf("%03d", i)} } // 3 bytes each
	for i := 0; i < 5; i++ {
		m.Put(key(i), i, 97) // 100 accounted: five fill the young half exactly
	}
	if st := m.Stats(); st.Entries != 5 || st.Bytes != 500 {
		t.Fatalf("five entries of 100: %+v", st)
	}
	m.Put(key(5), 5, 97) // turns the generations: 0–4 are old now
	if v, ok := m.Get(key(0)); !ok || v != 0 {
		t.Fatalf("Get(0) after one turn = %d, %v", v, ok)
	}
	for i := 6; i < 10; i++ { // 5, 0, 6, 7, 8 fill the young half; 9 turns it
		m.Put(key(i), i, 97)
	}
	for i, want := range []bool{true, false, false, false, false, true, true, true, true, true} {
		if _, ok := m.Get(key(i)); ok != want {
			t.Errorf("Get(%d) = %v, want %v (0 was read back, 1–4 never)", i, ok, want)
		}
	}
	if st := m.Stats(); st.Bytes > 1000 || st.Entries != 6 || st.Hits != 7 || st.Misses != 4 {
		t.Errorf("%+v, want 6 entries within 1000 bytes, 7 hits, 4 misses", st)
	}

	// A value of over half the budget is not kept; a key stored twice is
	// accounted once.
	m.Put(Key{Method: "m", Text: "big"}, -1, 500)
	if _, ok := m.Get(Key{Method: "m", Text: "big"}); ok {
		t.Error("a value over half the budget was kept")
	}
	before := m.Stats()
	m.Put(key(9), 9, 97)
	m.Put(key(9), 9, 47)
	if st := m.Stats(); st.Entries != before.Entries || st.Bytes != before.Bytes-50 {
		t.Errorf("storing a key again: %+v after %+v", st, before)
	}
	// The method is part of the key.
	if _, ok := m.Get(Key{Method: "wcoj", Text: "009"}); ok {
		t.Error("a key with another method hit")
	}
}

// TestConcurrent hammers one memo from several goroutines; under -race it
// checks the map is never touched outside the lock.
func TestConcurrent(t *testing.T) {
	m := New[*int](1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{Text: fmt.Sprint((i + g) % 97)}
				if v, ok := m.Get(k); ok {
					if *v != (i+g)%97 {
						t.Errorf("Get(%s) = %d", k.Text, *v)
					}
					continue
				}
				v := (i + g) % 97
				m.Put(k, &v, 64)
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.Bytes > 1<<12 || st.Hits+st.Misses != 8*2000 {
		t.Errorf("%+v", st)
	}
}
