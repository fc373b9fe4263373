// Package memo is the bounded map from a request's text to what was
// compiled from it: the server keeps a query's parse, verdict, route and
// strategy there, so a text seen before costs one lookup instead of the
// front end.
//
// Values are published once and never written again, so every hit shares
// one value without further locking; only the map itself is guarded. Two
// concurrent first requests for a text may both compile it — the later Put
// wins and the values are equal.
package memo

import "sync"

// Key is what a compiled value is a function of: the method the request
// named ("" when it left the choice to the server) and the query text.
// Nothing else of a request is in it — not its op, timeout or affinity.
type Key struct {
	Method, Text string
}

// Memo holds compiled values within a byte budget by keeping two
// generations: a value enters the young one, a hit in the old one moves it
// back to the young one, and when the young generation reaches half the
// budget it becomes the old one and what was old is dropped. A working set
// under half the budget therefore stays resident, and nothing is ever
// ordered or scanned.
type Memo[V any] struct {
	budget int64

	mu                 sync.Mutex
	young, old         map[Key]entry[V]
	youngSize, oldSize int64
	hits, misses       int64
}

type entry[V any] struct {
	v    V
	size int64
}

// New returns a memo that accounts at most budget bytes.
func New[V any](budget int64) *Memo[V] {
	return &Memo[V]{budget: budget, young: make(map[Key]entry[V])}
}

// Get returns the value stored under k and counts the hit or the miss.
func (m *Memo[V]) Get(k Key) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.young[k]
	if !ok {
		if e, ok = m.old[k]; ok {
			m.put(k, e)
		}
	}
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return e.v, ok
}

// Put stores v under k, accounted as size bytes plus the key's own; a
// value over half the budget is not stored.
func (m *Memo[V]) Put(k Key, v V, size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.put(k, entry[V]{v, size + int64(len(k.Method)+len(k.Text))})
}

// put moves k's entry, new or from either generation, into the young one.
func (m *Memo[V]) put(k Key, e entry[V]) {
	if e.size > m.budget/2 {
		return
	}
	if prev, ok := m.young[k]; ok {
		delete(m.young, k)
		m.youngSize -= prev.size
	}
	if prev, ok := m.old[k]; ok {
		delete(m.old, k)
		m.oldSize -= prev.size
	}
	if m.youngSize+e.size > m.budget/2 {
		m.old, m.oldSize = m.young, m.youngSize
		m.young, m.youngSize = make(map[Key]entry[V]), 0
	}
	m.young[k] = e
	m.youngSize += e.size
}

// Outcome is the request log's word for a lookup's result.
func Outcome(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// Stats is a memo's counters: lookups that hit and missed, and the entries
// and accounted bytes it holds now.
type Stats struct {
	Hits, Misses int64
	Entries      int
	Bytes        int64
}

// Stats snapshots the counters.
func (m *Memo[V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.misses, Entries: len(m.young) + len(m.old), Bytes: m.youngSize + m.oldSize}
}
