package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/jointree"
	"projpush/internal/memo"
	"projpush/internal/server"
)

// routesBudget bounds the bytes the routes memo accounts: a constant, like
// the server's compiledBudget and for the same reasons.
const routesBudget = 8 << 20

// routed is what the coordinator needs of a request's text: the analyzed
// query and the database it sees, for a local rescue, and the affinity id.
// It is read-only once compile returns it.
type routed struct {
	s  *jointree.Structure
	db cq.Database
	fp string
}

// compile parses a request's text and computes its affinity id — or, for a
// text and named method seen before, looks them up: the key is those two
// strings, so a retry with another timeout hits. A text with rel blocks is
// compiled every time; its database is its own.
func (c *Coordinator) compile(req *server.Request) (r *routed, hit bool, err error) {
	key := memo.Key{Method: req.Method, Text: req.Query}
	if r, ok := c.routes.Get(key); ok {
		return r, true, nil
	}
	file, err := cqparse.ParseWith(strings.NewReader(req.Query), c.cfg.DB)
	if err != nil {
		return nil, false, err
	}
	s, err := jointree.Analyze(file.Query)
	if err != nil {
		return nil, false, err
	}
	r = &routed{s: s, db: file.DB, fp: c.affinity(req, s)}
	if file.Rels == 0 {
		// The parsed query and its structure: 460–620 bytes per atom on the
		// Figure 6–9 families at orders 5–40.
		c.routes.Put(key, r, 1024+540*int64(len(file.Query.Atoms)))
	}
	return r, false, nil
}

// affinity computes the routing key: the renaming-invariant fingerprint
// of the plan a worker would admit — the named method's, or for a
// methodless request the MCS bucket-elimination plan, as every worker does
// — so every query in the same family hashes to one worker. What that
// keeps warm is the worker's compile memo, which is keyed by method and
// text: a repeated text hits it there, while two renamings of one query
// each compile once. Requests whose plan cannot be built fall back
// to hashing the raw text — they still route deterministically, and the
// worker produces the typed error.
func (c *Coordinator) affinity(req *server.Request, s *jointree.Structure) string {
	if p, err := server.AdmissionPlan(req.Method, s); err == nil {
		return server.FingerprintID(p)
	}
	h := fnv.New64a()
	io.WriteString(h, req.Method)
	io.WriteString(h, "\x00")
	io.WriteString(h, req.Query)
	return fmt.Sprintf("%016x", h.Sum64())
}
