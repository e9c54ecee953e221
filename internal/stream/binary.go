package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// binaryMagic identifies the binary stream format ("MKC1").
var binaryMagic = [4]byte{'M', 'K', 'C', '1'}

// WriteBinary encodes the stream in the compact binary format: a 4-byte
// magic, uvarint m and n, then one (uvarint set, uvarint elem) pair per
// edge. Typically 3-5× smaller and an order of magnitude faster to parse
// than the text format; use it for large generated workloads.
func WriteBinary(w io.Writer, it Iterator, m, n int) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		_, err := bw.Write(buf[:binary.PutUvarint(buf[:], v)])
		return err
	}
	if err := putUvarint(uint64(m)); err != nil {
		return err
	}
	if err := putUvarint(uint64(n)); err != nil {
		return err
	}
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if err := putUvarint(uint64(e.Set)); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.Elem)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a stream written by WriteBinary.
func ReadBinary(r io.Reader) (*Slice, int, int, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("stream: bad binary magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, 0, 0, fmt.Errorf("stream: not a binary stream (magic %q)", magic[:])
	}
	m64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("stream: bad m: %w", err)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("stream: bad n: %w", err)
	}
	if m64 > 1<<31 || n64 > 1<<31 {
		return nil, 0, 0, fmt.Errorf("stream: implausible dims (%d, %d)", m64, n64)
	}
	m, n := int(m64), int(n64)
	var edges []Edge
	for {
		s, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("stream: bad edge %d set: %w", len(edges), err)
		}
		e, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("stream: bad edge %d elem: %w", len(edges), err)
		}
		if s >= m64 || e >= n64 {
			return nil, 0, 0, fmt.Errorf("stream: edge (%d,%d) out of bounds (%d,%d)", s, e, m, n)
		}
		edges = append(edges, Edge{Set: uint32(s), Elem: uint32(e)})
	}
	return FromEdges(edges), m, n, nil
}

// ReadAuto sniffs the format (binary magic vs text header) and decodes
// accordingly.
func ReadAuto(r io.Reader) (*Slice, int, int, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil && len(head) < 4 {
		return nil, 0, 0, fmt.Errorf("stream: input too short: %w", err)
	}
	if [4]byte(head) == binaryMagic {
		return ReadBinary(br)
	}
	return Read(br)
}
