package relation

// Spill-to-disk support for the resource governor. A Spiller owns one
// temp directory and a disk-byte budget; executors hand it whole flat
// tuple arenas (WriteRelation) or row streams (NewRowFile) when live
// bytes exceed Limit.MaxBytes, and stream them back when the consumer
// is ready. Files carry the arena in its packed on-heap layout —
// little-endian int32 values, row i at offset i*arity — with the
// per-column ranges, so a round trip is bit-identical. No dedup table or
// key regime is stored: a relation's exact flag is not current while it
// is stale (a join's output), so Load leaves the reloaded relation stale
// and the first membership query derives the regime from the restored
// ranges, which cover every row (ensureDedup).
//
// Every disk failure mode is deterministic in tests via faultinject:
// spill.write.fail and spill.read.fail fire in the serialization paths,
// spill.full models ENOSPC (real ENOSPC maps to the same sentinel), and
// spill.slow injects latency at file creation and read-back open.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"projpush/internal/faultinject"
)

// ErrSpillIO reports an unrecoverable spill I/O failure: a write or
// read-back of spilled state failed, so the run cannot produce its
// answer from what remains in memory. The engine classifies it as
// ErrSpill (aliasing ErrInternal), so the degradation ladder re-plans.
var ErrSpillIO = errors.New("relation: spill I/O failure")

// ErrSpillFull reports disk exhaustion: either the Spiller's configured
// byte budget would be exceeded or the filesystem returned ENOSPC.
var ErrSpillFull = errors.New("relation: spill disk budget exhausted")

// spillMagic identifies a relation spill file ("PJSP").
const spillMagic = 0x504a5350

// Spiller is a governor-owned spill manager: it creates temp files
// under its own subdirectory, enforces a disk-byte budget across all of
// them, and tracks cumulative spill traffic for Stats reporting. It is
// safe for concurrent use; Cleanup removes the directory wholesale so
// no failure path can orphan files past the end of a run.
type Spiller struct {
	dir string
	max int64 // disk budget in bytes; 0 = unlimited

	mu      sync.Mutex
	used    int64 // live bytes on disk
	written int64 // cumulative bytes ever written
	files   int   // cumulative files ever created
	seq     int
}

// NewSpiller creates a spill manager rooted at a fresh subdirectory of
// dir (os.TempDir() when dir is empty), with a disk budget of maxBytes
// (0 = unlimited).
func NewSpiller(dir string, maxBytes int64) (*Spiller, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, wrapSpillErr(err)
		}
	}
	d, err := os.MkdirTemp(dir, "projpush-spill-")
	if err != nil {
		return nil, wrapSpillErr(err)
	}
	return &Spiller{dir: d, max: maxBytes}, nil
}

// Dir returns the spill directory.
func (s *Spiller) Dir() string { return s.dir }

// Stats returns the cumulative bytes written and files created over the
// Spiller's lifetime (deleting a file does not decrement either; these
// feed Stats.SpilledBytes/SpillFiles).
func (s *Spiller) Stats() (bytes int64, files int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written, s.files
}

// Cleanup removes the spill directory and everything in it.
func (s *Spiller) Cleanup() {
	os.RemoveAll(s.dir)
}

// charge reserves delta disk bytes against the budget.
func (s *Spiller) charge(delta int64) error {
	if faultinject.FailAlloc(faultinject.SpillFull) {
		return fmt.Errorf("%w: injected ENOSPC", ErrSpillFull)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.max > 0 && s.used+delta > s.max {
		return fmt.Errorf("%w: %d bytes on disk + %d requested over budget %d",
			ErrSpillFull, s.used, delta, s.max)
	}
	s.used += delta
	s.written += delta
	return nil
}

// credit releases delta disk bytes back to the budget.
func (s *Spiller) credit(delta int64) {
	s.mu.Lock()
	s.used -= delta
	s.mu.Unlock()
}

// create opens a fresh spill file.
func (s *Spiller) create() (*os.File, error) {
	faultinject.Sleep(faultinject.SpillSlow)
	s.mu.Lock()
	s.seq++
	n := s.seq
	s.files++
	s.mu.Unlock()
	f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("spill-%06d.bin", n)))
	if err != nil {
		return nil, wrapSpillErr(err)
	}
	return f, nil
}

// wrapSpillErr maps an OS error into the spill sentinels: ENOSPC is
// budget exhaustion, everything else is unrecoverable I/O.
func wrapSpillErr(err error) error {
	if errors.Is(err, syscall.ENOSPC) {
		return fmt.Errorf("%w: %v", ErrSpillFull, err)
	}
	return fmt.Errorf("%w: %v", ErrSpillIO, err)
}

// spillWriter wraps a spill file with buffering, quota accounting, and
// fault injection. All writes go through write().
type spillWriter struct {
	sp      *Spiller
	f       *os.File
	w       *bufio.Writer
	charged int64
	scratch [8]byte
}

func (sw *spillWriter) write(p []byte) error {
	if faultinject.FailAlloc(faultinject.SpillWrite) {
		return fmt.Errorf("%w: injected write failure", ErrSpillIO)
	}
	if err := sw.sp.charge(int64(len(p))); err != nil {
		return err
	}
	sw.charged += int64(len(p))
	if _, err := sw.w.Write(p); err != nil {
		return wrapSpillErr(err)
	}
	return nil
}

func (sw *spillWriter) writeUint64(v uint64) error {
	binary.LittleEndian.PutUint64(sw.scratch[:], v)
	return sw.write(sw.scratch[:8])
}

// writeValues serializes a []Value run in bounded blocks so spilling a
// large arena never doubles its footprint transiently.
func (sw *spillWriter) writeValues(vals []Value) error {
	buf := make([]byte, 1<<15)
	for len(vals) > 0 {
		k := len(buf) / 4
		if k > len(vals) {
			k = len(vals)
		}
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(vals[i]))
		}
		if err := sw.write(buf[:k*4]); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// finish flushes and closes the file, returning the first error.
func (sw *spillWriter) finish() error {
	if err := sw.w.Flush(); err != nil {
		sw.f.Close()
		return wrapSpillErr(err)
	}
	if err := sw.f.Close(); err != nil {
		return wrapSpillErr(err)
	}
	return nil
}

// abort closes and removes the partial file and refunds its quota.
func (sw *spillWriter) abort() {
	sw.f.Close()
	os.Remove(sw.f.Name())
	sw.sp.credit(sw.charged)
}

// SpillFile is one spilled relation on disk.
type SpillFile struct {
	sp    *Spiller
	path  string
	bytes int64
	attrs []Attr
}

// Bytes returns the file's size on disk.
func (f *SpillFile) Bytes() int64 { return f.bytes }

// WriteRelation serializes r's flat arena (header, schema, per-column
// ranges, then the raw rows) to a fresh spill file. On any failure the
// partial file is removed and the disk budget refunded.
func (s *Spiller) WriteRelation(r *Relation) (*SpillFile, error) {
	f, err := s.create()
	if err != nil {
		return nil, err
	}
	sw := &spillWriter{sp: s, f: f, w: bufio.NewWriter(f)}
	if err := s.writeRelationTo(sw, r); err != nil {
		sw.abort()
		return nil, err
	}
	if err := sw.finish(); err != nil {
		os.Remove(f.Name())
		s.credit(sw.charged)
		return nil, err
	}
	return &SpillFile{
		sp:    s,
		path:  f.Name(),
		bytes: sw.charged,
		attrs: append([]Attr(nil), r.attrs...),
	}, nil
}

func (s *Spiller) writeRelationTo(sw *spillWriter, r *Relation) error {
	for _, v := range []uint64{spillMagic, uint64(r.arity), uint64(r.n)} {
		if err := sw.writeUint64(v); err != nil {
			return err
		}
	}
	for _, a := range r.attrs {
		if err := sw.writeUint64(uint64(int64(a))); err != nil {
			return err
		}
	}
	if err := sw.writeValues(r.colMin); err != nil {
		return err
	}
	if err := sw.writeValues(r.colMax); err != nil {
		return err
	}
	return sw.writeValues(r.data[:r.n*r.arity])
}

// Load streams the file back into a fresh private relation: the arena and
// the column ranges are restored byte-identically, and the dedup table is
// left stale, to be built only if a caller asks membership (the merge of
// spilled partials only scans). The file stays on disk until Close.
func (f *SpillFile) Load() (*Relation, error) {
	faultinject.Sleep(faultinject.SpillSlow)
	if faultinject.FailAlloc(faultinject.SpillRead) {
		return nil, fmt.Errorf("%w: injected read failure", ErrSpillIO)
	}
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, wrapSpillErr(err)
	}
	defer fh.Close()
	br := bufio.NewReader(fh)
	var scratch [8]byte
	readUint64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, wrapSpillErr(err)
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	readValues := func(dst []Value) error {
		buf := make([]byte, 1<<15)
		for len(dst) > 0 {
			k := len(buf) / 4
			if k > len(dst) {
				k = len(dst)
			}
			if _, err := io.ReadFull(br, buf[:k*4]); err != nil {
				return wrapSpillErr(err)
			}
			for i := 0; i < k; i++ {
				dst[i] = Value(binary.LittleEndian.Uint32(buf[i*4:]))
			}
			dst = dst[k:]
		}
		return nil
	}
	magic, err := readUint64()
	if err != nil {
		return nil, err
	}
	if magic != spillMagic {
		return nil, fmt.Errorf("%w: bad spill file magic %#x", ErrSpillIO, magic)
	}
	arity64, err := readUint64()
	if err != nil {
		return nil, err
	}
	n64, err := readUint64()
	if err != nil {
		return nil, err
	}
	arity, n := int(arity64), int(n64)
	if arity != len(f.attrs) {
		return nil, fmt.Errorf("%w: spill file arity %d != schema arity %d",
			ErrSpillIO, arity, len(f.attrs))
	}
	attrs := make([]Attr, arity)
	for i := range attrs {
		a, err := readUint64()
		if err != nil {
			return nil, err
		}
		attrs[i] = Attr(int64(a))
	}
	r := New(attrs)
	if err := readValues(r.colMin); err != nil {
		return nil, err
	}
	if err := readValues(r.colMax); err != nil {
		return nil, err
	}
	r.data = make([]Value, n*arity)
	if err := readValues(r.data); err != nil {
		return nil, err
	}
	r.n = n
	r.stale = true
	return r, nil
}

// Close removes the file and refunds its disk quota. Safe to call more
// than once.
func (f *SpillFile) Close() {
	if f == nil || f.sp == nil {
		return
	}
	os.Remove(f.path)
	f.sp.credit(f.bytes)
	f.sp = nil
}

// RowFile is an append-only spill stream of fixed-arity rows, used for
// hash-build chunks and probe-side spooling: rows go out in arrival
// order and come back in the same order through one or more sequential
// Readers.
type RowFile struct {
	sp       *Spiller
	path     string
	arity    int
	rows     int64
	sw       *spillWriter
	finished bool
	closed   bool
}

// NewRowFile opens a fresh row stream with the given tuple arity.
func (s *Spiller) NewRowFile(arity int) (*RowFile, error) {
	f, err := s.create()
	if err != nil {
		return nil, err
	}
	return &RowFile{
		sp:    s,
		path:  f.Name(),
		arity: arity,
		sw:    &spillWriter{sp: s, f: f, w: bufio.NewWriter(f)},
	}, nil
}

// Arity returns the row arity.
func (rf *RowFile) Arity() int { return rf.arity }

// Rows returns the number of rows appended so far.
func (rf *RowFile) Rows() int64 { return rf.rows }

// Bytes returns the bytes written so far.
func (rf *RowFile) Bytes() int64 { return rf.sw.charged }

// Append writes one row. On failure the stream is unusable; Close
// removes the partial file.
func (rf *RowFile) Append(t Tuple) error {
	if len(t) != rf.arity {
		return fmt.Errorf("%w: row arity %d != stream arity %d", ErrSpillIO, len(t), rf.arity)
	}
	if rf.arity == 0 {
		// Zero-arity rows (existence-only tuples) still need a presence
		// marker so replay yields the right multiplicity.
		if err := rf.sw.write([]byte{1}); err != nil {
			return err
		}
		rf.rows++
		return nil
	}
	if err := rf.sw.writeValues(t); err != nil {
		return err
	}
	rf.rows++
	return nil
}

// Finish flushes and closes the write side. Required before Reader.
func (rf *RowFile) Finish() error {
	if rf.finished {
		return nil
	}
	rf.finished = true
	return rf.sw.finish()
}

// Reader opens a sequential reader over the finished stream. Multiple
// Readers (one per replayed chunk pass) may be opened over one file.
func (rf *RowFile) Reader() (*RowReader, error) {
	faultinject.Sleep(faultinject.SpillSlow)
	if faultinject.FailAlloc(faultinject.SpillRead) {
		return nil, fmt.Errorf("%w: injected read failure", ErrSpillIO)
	}
	if !rf.finished {
		return nil, fmt.Errorf("%w: reading an unfinished row stream", ErrSpillIO)
	}
	f, err := os.Open(rf.path)
	if err != nil {
		return nil, wrapSpillErr(err)
	}
	return &RowReader{
		f:     f,
		br:    bufio.NewReader(f),
		arity: rf.arity,
		row:   make(Tuple, rf.arity),
		buf:   make([]byte, rf.arity*4),
	}, nil
}

// Close removes the file and refunds its quota. Safe to call more than
// once; it force-closes an unfinished write side first.
func (rf *RowFile) Close() {
	if rf == nil || rf.closed {
		return
	}
	rf.closed = true
	if !rf.finished {
		rf.finished = true
		rf.sw.w.Flush()
		rf.sw.f.Close()
	}
	os.Remove(rf.path)
	rf.sp.credit(rf.sw.charged)
}

// RowReader streams rows back from a RowFile in append order.
type RowReader struct {
	f     *os.File
	br    *bufio.Reader
	arity int
	row   Tuple
	buf   []byte
}

// Next returns the next row, or (nil, nil) at end of stream. The
// returned tuple is only valid until the following Next call.
func (rd *RowReader) Next() (Tuple, error) {
	if rd.arity == 0 {
		if _, err := rd.br.ReadByte(); err != nil {
			if err == io.EOF {
				return nil, nil
			}
			return nil, wrapSpillErr(err)
		}
		return rd.row, nil
	}
	if _, err := io.ReadFull(rd.br, rd.buf); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, wrapSpillErr(err)
	}
	for i := range rd.row {
		rd.row[i] = Value(binary.LittleEndian.Uint32(rd.buf[i*4:]))
	}
	return rd.row, nil
}

// Close releases the reader's file handle.
func (rd *RowReader) Close() {
	if rd.f != nil {
		rd.f.Close()
		rd.f = nil
	}
}
