package engine

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// Cache is a sharded, memory-accounted result cache for subplan
// executions. The paper's figure pipeline runs the same structured
// workloads through five methods × many repetitions over one tiny
// database, and the methods' plans share scans and low subjoins — so
// identical subtrees are re-joined from scratch thousands of times.
// The cache memoizes every Join and Project subtree result under a key
// that is invariant to variable renaming:
//
//	key = databaseFingerprint ⊕ plan.Fingerprint(subtree)
//
// Cached relations are stored over canonical attributes (the fingerprint's
// first-occurrence numbering) and re-bound to the hitting subtree's actual
// variables with a zero-copy relation.Rename, so a hit costs O(arity), not
// O(rows). Alongside the relation, each entry carries the subtree's
// execution Stats (max intermediate rows/arity, tuples, work, operator
// counts); a hit merges them into the running execution's stats, so
// cache-on and cache-off runs report identical instrumentation — the
// property the differential tests pin down.
//
// Sharding: keys hash onto a fixed array of mutex-guarded shards, so
// concurrent executions (the experiment harness worker pool) contend only
// per shard. Memory: every entry is accounted
// at its relation's arena+table size; inserting past a shard's share of
// MaxBytes evicts least-recently-used entries of that shard. Entries
// whose relation alone exceeds the shard budget are not cached at all.
//
// Concurrent misses of the same key may compute the result twice; the
// second store is dropped. That keeps the fast path lock-free outside the
// shard map and is harmless: results are deterministic per key.
type Cache struct {
	maxBytes   int64
	shardMax   int64
	shards     [cacheShards]cacheShard
	tick       atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	totalBytes atomic.Int64
}

const cacheShards = 16

// DefaultCacheBytes is the memory budget NewCache applies when given a
// non-positive limit.
const DefaultCacheBytes = 256 << 20

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	bytes   int64
}

type cacheEntry struct {
	rel     *relation.Relation // canonical attributes 0..arity-1
	stats   Stats              // subtree-local execution stats
	bytes   int64
	lastUse int64
}

// NewCache returns an empty cache bounded by maxBytes of cached relation
// storage (DefaultCacheBytes if maxBytes <= 0).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &Cache{maxBytes: maxBytes, shardMax: maxBytes / cacheShards}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry)
	}
	return c
}

// CacheCounters is a snapshot of a cache's lifetime counters.
type CacheCounters struct {
	Hits, Misses, Evictions, Entries int64
	Bytes                            int64
}

// Counters returns the cache's lifetime hit/miss/eviction counts and its
// current entry count and accounted bytes.
func (c *Cache) Counters() CacheCounters {
	var entries int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return CacheCounters{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     c.totalBytes.Load(),
	}
}

// String renders the counters compactly, the form Explain appends.
func (cc CacheCounters) String() string {
	return fmt.Sprintf("hits=%d misses=%d entries=%d bytes=%d evictions=%d",
		cc.Hits, cc.Misses, cc.Entries, cc.Bytes, cc.Evictions)
}

// shard picks the shard of a key by FNV-1a.
func (c *Cache) shard(key string) *cacheShard {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%cacheShards]
}

// get looks the key up, returning the entry's relation and subtree stats.
func (c *Cache) get(key string) (*relation.Relation, Stats, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		e.lastUse = c.tick.Add(1)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, Stats{}, false
	}
	c.hits.Add(1)
	return e.rel, e.stats, true
}

// put stores a subtree result (over canonical attributes) unless an entry
// for the key already exists or the relation alone exceeds the per-shard
// budget. Over-budget shards evict least-recently-used entries.
func (c *Cache) put(key string, rel *relation.Relation, stats Stats) {
	bytes := rel.Bytes() + int64(len(key))
	if bytes > c.shardMax {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[key]; dup {
		return
	}
	for s.bytes+bytes > c.shardMax {
		var oldKey string
		var old *cacheEntry
		for k, e := range s.entries {
			if old == nil || e.lastUse < old.lastUse {
				oldKey, old = k, e
			}
		}
		if old == nil {
			break
		}
		delete(s.entries, oldKey)
		s.bytes -= old.bytes
		c.totalBytes.Add(-old.bytes)
		c.evictions.Add(1)
	}
	s.entries[key] = &cacheEntry{rel: rel, stats: stats, bytes: bytes, lastUse: c.tick.Add(1)}
	s.bytes += bytes
	c.totalBytes.Add(bytes)
}

// DatabaseFingerprint digests a database's contents: relation names,
// schemas, and every tuple in insertion order. Two executions share cache
// entries only under equal fingerprints, so a mutated or regenerated
// database (each SAT repetition builds a fresh one) never aliases stale
// results. The paper's databases are tiny — a 6-tuple relation for
// 3-COLOR — so the digest is recomputed per execution rather than
// memoized against mutation hazards.
func DatabaseFingerprint(db cq.Database) string {
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	var h uint64 = 14695981039346656037
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= 1099511628211
		}
	}
	for _, name := range names {
		for i := 0; i < len(name); i++ {
			h ^= uint64(name[i])
			h *= 1099511628211
		}
		r := db[name]
		mix(uint64(r.Arity()))
		mix(uint64(r.Len()))
		for _, a := range r.Attrs() {
			mix(uint64(a))
		}
		r.Each(func(t relation.Tuple) bool {
			for _, v := range t {
				mix(uint64(uint32(v)))
			}
			return true
		})
	}
	return fmt.Sprintf("%016x", h)
}

// cacheKey combines the database and subtree fingerprints, returning the
// canonicalization witness needed to bind a cached relation to the
// subtree's actual variables.
func cacheKey(dbFP string, n plan.Node) (string, []cq.Var) {
	fp, vars := plan.Fingerprint(n)
	return dbFP + "\x00" + fp, vars
}

// streamScanKeys derives the streaming engine's per-scan cache keys: one
// key per base-relation occurrence, in the pushdown phase's collect
// (DFS) order. The reduced view of a scan depends on every reduction edge
// of the plan, so the key embeds the whole plan's renaming-invariant
// fingerprint; the scan position disambiguates occurrences, and DFS order
// corresponds across isomorphic plans.
func streamScanKeys(dbFP string, p plan.Node, n int) []string {
	fp, _ := plan.Fingerprint(p)
	prefix := dbFP + "\x00streamscan:" + fp + ":"
	keys := make([]string, n)
	for i := range keys {
		keys[i] = prefix + strconv.Itoa(i)
	}
	return keys
}

// toCanonical renames a subtree result onto the canonical attributes of
// its fingerprint, or a scan's reduced view onto its column positions:
// vars[i] → i, so the cached relation is invariant to variable naming.
func toCanonical(rel *relation.Relation, vars []cq.Var) *relation.Relation {
	m := make(map[relation.Attr]relation.Attr, len(vars))
	for i, v := range vars {
		m[v] = i
	}
	return relation.Rename(rel, m)
}

// fromCanonical binds a cached canonical relation to the hitting
// subtree's (or atom's) actual variables: i → vars[i].
func fromCanonical(rel *relation.Relation, vars []cq.Var) *relation.Relation {
	m := make(map[relation.Attr]relation.Attr, len(vars))
	for i, v := range vars {
		m[i] = v
	}
	return relation.Rename(rel, m)
}
