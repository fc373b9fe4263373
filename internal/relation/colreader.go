package relation

// ColumnReader is a zero-copy column-subset cursor over a relation's
// arena: Next yields the selected columns of each stored row into a
// reusable buffer, without materializing the projection. It is the fused
// scan+project primitive of the pipelined executor — a scan that emits
// only the columns its consumers need reads the arena through one of
// these instead of building a projected relation first.
type ColumnReader struct {
	r   *Relation
	idx []int // selected column indexes, in output order; nil = whole rows
	pos int
	buf Tuple
}

// NewColumnReader returns a cursor over the columns of r at the given
// indexes, in the given order. A nil idx selects every column in stored
// order, and Next then yields the stored rows themselves.
func NewColumnReader(r *Relation, idx []int) ColumnReader {
	c := ColumnReader{r: r, idx: idx}
	if idx != nil {
		c.buf = make(Tuple, len(idx))
	}
	return c
}

// Next returns the selected columns of the next row, or nil at end of
// stream. The returned tuple is the cursor's reusable buffer or, for a
// whole-row cursor, the arena row: it is only valid until the next call,
// callers that retain it must copy, and none may write to it.
func (c *ColumnReader) Next() Tuple {
	if c.pos >= c.r.n {
		return nil
	}
	row := c.r.row(c.pos)
	c.pos++
	if c.idx == nil {
		return row
	}
	for i, p := range c.idx {
		c.buf[i] = row[p]
	}
	return c.buf
}
