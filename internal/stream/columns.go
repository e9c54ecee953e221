package stream

import (
	"encoding/binary"
	"fmt"
)

// columnsMagic identifies the columnar batch format ("MKC2"). It shares
// the MKC1 file header's shape (magic, uvarint m, uvarint n) but lays the
// edges out as two fixed-width ID columns instead of interleaved uvarint
// pairs:
//
//	4 bytes  magic "MKC2"
//	uvarint  m
//	uvarint  n
//	uvarint  count
//	count × 4 bytes  little-endian set IDs
//	count × 4 bytes  little-endian element IDs
//
// The column layout is the decode-side contract: a consumer hands the two
// contiguous columns straight to the prepass interners without ever
// materializing per-edge structs, and the fixed width makes the decode a
// bounds-checked bulk copy instead of a data-dependent uvarint walk.
var columnsMagic = [4]byte{'M', 'K', 'C', '2'}

// Columns is one edge batch in struct-of-arrays form: Sets[i] and
// Elems[i] are edge i's endpoint IDs. It is the zero-transform wire
// representation — decoders fill it in place and the ingest hot path
// consumes the columns directly.
type Columns struct {
	Sets  []uint32
	Elems []uint32
}

// Len returns the number of edges held.
func (c *Columns) Len() int { return len(c.Sets) }

// Reset empties the columns, retaining capacity.
func (c *Columns) Reset() {
	c.Sets = c.Sets[:0]
	c.Elems = c.Elems[:0]
}

// Append records one edge.
func (c *Columns) Append(set, elem uint32) {
	c.Sets = append(c.Sets, set)
	c.Elems = append(c.Elems, elem)
}

// AppendBinaryColumns appends the MKC2 encoding of an edge batch in
// column form to buf and returns the extended buffer. sets and elems must
// have equal length; the encoder writes them verbatim, so the client-side
// layout IS the wire layout.
func AppendBinaryColumns(buf []byte, sets, elems []uint32, m, n int) []byte {
	if len(sets) != len(elems) {
		panic(fmt.Sprintf("stream: column length mismatch (%d sets, %d elems)", len(sets), len(elems)))
	}
	buf = append(buf, columnsMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(m))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(sets)))
	for _, s := range sets {
		buf = binary.LittleEndian.AppendUint32(buf, s)
	}
	for _, e := range elems {
		buf = binary.LittleEndian.AppendUint32(buf, e)
	}
	return buf
}

// DecodeBinaryColumnsInto decodes an in-memory MKC2 blob into cols,
// reusing its backing arrays, and returns the blob's declared dims. Every
// ID is validated against those dims, matching ReadBinary's contract.
// The payload must hold exactly count edges — trailing bytes are an error.
func DecodeBinaryColumnsInto(data []byte, cols *Columns) (m, n int, err error) {
	if len(data) < 4 {
		return 0, 0, fmt.Errorf("stream: bad binary magic: truncated")
	}
	if [4]byte(data[:4]) != columnsMagic {
		return 0, 0, fmt.Errorf("stream: not a columnar stream (magic %q)", data[:4])
	}
	rest := data[4:]
	next := func(what string) (uint64, error) {
		v, w := binary.Uvarint(rest)
		if w <= 0 {
			return 0, fmt.Errorf("stream: bad %s: truncated uvarint", what)
		}
		rest = rest[w:]
		return v, nil
	}
	m64, err := next("m")
	if err != nil {
		return 0, 0, err
	}
	n64, err := next("n")
	if err != nil {
		return 0, 0, err
	}
	if m64 > 1<<31 || n64 > 1<<31 {
		return 0, 0, fmt.Errorf("stream: implausible dims (%d, %d)", m64, n64)
	}
	count, err := next("count")
	if err != nil {
		return 0, 0, err
	}
	if count > uint64(len(rest))/8 || count*8 != uint64(len(rest)) {
		return 0, 0, fmt.Errorf("stream: columnar payload %d bytes, want %d edges × 8", len(rest), count)
	}
	cols.Sets = growU32(cols.Sets, int(count))
	cols.Elems = growU32(cols.Elems, int(count))
	setBytes, elemBytes := rest[:count*4], rest[count*4:]
	for i := range cols.Sets {
		s := binary.LittleEndian.Uint32(setBytes[4*i:])
		if uint64(s) >= m64 {
			return 0, 0, fmt.Errorf("stream: set %d out of bounds (m=%d)", s, m64)
		}
		cols.Sets[i] = s
	}
	for i := range cols.Elems {
		e := binary.LittleEndian.Uint32(elemBytes[4*i:])
		if uint64(e) >= n64 {
			return 0, 0, fmt.Errorf("stream: elem %d out of bounds (n=%d)", e, n64)
		}
		cols.Elems[i] = e
	}
	return int(m64), int(n64), nil
}

// growU32 returns a slice of length n reusing dst's storage when possible.
func growU32(dst []uint32, n int) []uint32 {
	if cap(dst) < n {
		return make([]uint32, n)
	}
	return dst[:n]
}
