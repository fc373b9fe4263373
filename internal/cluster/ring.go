package cluster

import (
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over worker addresses. Each worker owns
// vnodes points on a uint64 circle; a key routes to the first point at or
// after its hash, and the full walk from there yields every worker in a
// key-stable preference order — the failover sequence. Virtual nodes keep
// shard ownership balanced and membership changes minimal: adding or
// removing one worker of n moves only ~1/n of the key space, so
// the compile memos of the surviving workers stay warm through churn.
type ring struct {
	vnodes int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	addr string
}

func newRing(vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &ring{vnodes: vnodes}
}

// fnvOffset64 is FNV-64a's initial state.
const fnvOffset64 = 14695981039346656037

// fnv1a folds s into the FNV-64a state h. It reads the string in place:
// hashing a request text copies nothing, and the value is the same in
// every process.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hash64 places keys on the circle. Raw FNV-64a diffuses short, similar
// keys (sequential worker ports, the "#i" vnode suffixes) into narrow
// bands, which collapses the ring into unbalanced range partitioning —
// so the FNV digest is passed through a splitmix64 finalizer to
// avalanche it across the full 64-bit circle.
func hash64(s string) uint64 {
	x := fnv1a(fnvOffset64, s)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add inserts a worker's virtual nodes (idempotent).
func (r *ring) add(addr string) {
	for _, p := range r.points {
		if p.addr == addr {
			return
		}
	}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", addr, i)), addr: addr})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove deletes a worker's virtual nodes.
func (r *ring) remove(addr string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.addr != addr {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// order returns every distinct worker in the key's preference order: the
// ring walk starting at the key's hash. The first entry is the key's
// affinity shard; the rest are its failover replicas, nearest first.
func (r *ring) order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []string
	seen := make(map[string]struct{})
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.addr]; ok {
			continue
		}
		seen[p.addr] = struct{}{}
		out = append(out, p.addr)
	}
	return out
}
