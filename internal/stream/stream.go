// Package stream models the paper's general edge-arrival streaming model:
// the input set system arrives as a sequence of (set, element) pairs in
// arbitrary order — a set's elements may be interleaved with every other
// set's (Section 1). The package provides iterators over in-memory edge
// slices, converters from explicit set systems under several arrival
// orders (set-arrival, shuffled, element-major, round-robin), codecs for
// stream files (plain text and the row binary format MKC1), the columnar
// batch format MKC2 that kcoverd ingest frames carry, and a pass-counting
// wrapper that tests use to assert single-pass behaviour.
package stream

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"streamcover/internal/setsystem"
)

// Edge is a single (set, element) arrival.
type Edge struct {
	Set  uint32
	Elem uint32
}

// Iterator yields a stream of edges exactly once per pass. Reset rewinds to
// the beginning for simulation convenience; single-pass algorithms must not
// call it (tests enforce this through Counting).
type Iterator interface {
	Next() (Edge, bool)
	Reset()
}

// Slice is an Iterator over an in-memory edge slice.
type Slice struct {
	edges []Edge
	pos   int
}

// FromEdges wraps an edge slice (not copied) in an Iterator.
func FromEdges(edges []Edge) *Slice { return &Slice{edges: edges} }

// Next returns the next edge, or ok=false at end of stream.
func (s *Slice) Next() (Edge, bool) {
	if s.pos >= len(s.edges) {
		return Edge{}, false
	}
	e := s.edges[s.pos]
	s.pos++
	return e, true
}

// Reset rewinds the iterator.
func (s *Slice) Reset() { s.pos = 0 }

// Len returns the total stream length.
func (s *Slice) Len() int { return len(s.edges) }

// Edges exposes the underlying slice (shared, not copied).
func (s *Slice) Edges() []Edge { return s.edges }

// Order selects the arrival order when linearizing a set system.
type Order int

const (
	// SetArrival lists each set's elements contiguously, set by set — the
	// restricted model earlier work assumed.
	SetArrival Order = iota
	// Shuffled permutes all edges uniformly — the general edge-arrival
	// model in its hardest form. Requires a *rand.Rand.
	Shuffled
	// ElementMajor groups edges by element: all sets containing element 0,
	// then element 1, … (the "ingoing edges" orientation of the paper's
	// footnote 2 graph example).
	ElementMajor
	// RoundRobin deals one element from each nonempty set in turn,
	// maximally interleaving sets without randomness.
	RoundRobin
)

// Linearize converts a set system into an edge stream under the given
// order. rng is required only for Shuffled and may be nil otherwise.
func Linearize(ss *setsystem.SetSystem, order Order, rng *rand.Rand) *Slice {
	edges := make([]Edge, 0, ss.Edges())
	switch order {
	case SetArrival, Shuffled:
		for i, set := range ss.Sets {
			for _, e := range set {
				edges = append(edges, Edge{Set: uint32(i), Elem: e})
			}
		}
		if order == Shuffled {
			if rng == nil {
				panic("stream: Shuffled order requires rng")
			}
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		}
	case ElementMajor:
		byElem := make([][]uint32, ss.N)
		for i, set := range ss.Sets {
			for _, e := range set {
				byElem[e] = append(byElem[e], uint32(i))
			}
		}
		for e, sets := range byElem {
			for _, s := range sets {
				edges = append(edges, Edge{Set: s, Elem: uint32(e)})
			}
		}
	case RoundRobin:
		next := make([]int, ss.M())
		remaining := ss.Edges()
		for remaining > 0 {
			for i, set := range ss.Sets {
				if next[i] < len(set) {
					edges = append(edges, Edge{Set: uint32(i), Elem: set[next[i]]})
					next[i]++
					remaining--
				}
			}
		}
	default:
		panic(fmt.Sprintf("stream: unknown order %d", order))
	}
	return FromEdges(edges)
}

// Collect drains an iterator into a slice (one full pass).
func Collect(it Iterator) []Edge {
	var out []Edge
	for {
		e, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// ToSetSystem materializes the stream back into an explicit set system with
// m sets and n elements (IDs beyond the declared bounds are an error).
func ToSetSystem(it Iterator, m, n int) (*setsystem.SetSystem, error) {
	sets := make([][]uint32, m)
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if int(e.Set) >= m {
			return nil, fmt.Errorf("stream: set id %d >= m=%d", e.Set, m)
		}
		if int(e.Elem) >= n {
			return nil, fmt.Errorf("stream: element id %d >= n=%d", e.Elem, n)
		}
		sets[e.Set] = append(sets[e.Set], e.Elem)
	}
	return setsystem.New(n, sets)
}

// Write encodes the stream as text: a header "maxkcover <m> <n>" followed
// by one "set elem" pair per line.
func Write(w io.Writer, it Iterator, m, n int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "maxkcover %d %d\n", m, n); err != nil {
		return err
	}
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.Set, e.Elem); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a stream file written by Write, returning the edges and the
// declared dimensions. It tolerates CRLF line endings and a final edge
// line without a trailing newline (files hand-edited or produced on
// Windows round-trip cleanly); blank lines are skipped.
func Read(r io.Reader) (*Slice, int, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		err := sc.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, 0, fmt.Errorf("stream: bad header: %w", err)
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 3 || fields[0] != "maxkcover" {
		return nil, 0, 0, fmt.Errorf("stream: bad header %q (want \"maxkcover <m> <n>\")", sc.Text())
	}
	m, errM := strconv.Atoi(fields[1])
	n, errN := strconv.Atoi(fields[2])
	if errM != nil || errN != nil || m < 0 || n < 0 {
		return nil, 0, 0, fmt.Errorf("stream: bad header dims %q", sc.Text())
	}
	var edges []Edge
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 2 {
			return nil, 0, 0, fmt.Errorf("stream: bad edge line %d: %q", line, text)
		}
		s64, errS := strconv.ParseUint(f[0], 10, 32)
		e64, errE := strconv.ParseUint(f[1], 10, 32)
		if errS != nil || errE != nil {
			return nil, 0, 0, fmt.Errorf("stream: bad edge line %d: %q", line, text)
		}
		s, e := uint32(s64), uint32(e64)
		if int(s) >= m || int(e) >= n {
			return nil, 0, 0, fmt.Errorf("stream: edge (%d,%d) out of declared bounds (%d,%d)", s, e, m, n)
		}
		edges = append(edges, Edge{Set: s, Elem: e})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("stream: read: %w", err)
	}
	return FromEdges(edges), m, n, nil
}

// Counting wraps an Iterator and counts completed passes; tests use it to
// assert an algorithm reads its input exactly once.
type Counting struct {
	inner  Iterator
	Passes int // completed passes (incremented on Reset after any reads and at exhaustion)
	read   bool
	done   bool
}

// NewCounting wraps it.
func NewCounting(it Iterator) *Counting { return &Counting{inner: it} }

// Next forwards to the wrapped iterator.
func (c *Counting) Next() (Edge, bool) {
	e, ok := c.inner.Next()
	if ok {
		c.read = true
		c.done = false
	} else if !c.done {
		c.done = true
		if c.read {
			c.Passes++
		}
	}
	return e, ok
}

// Reset rewinds and, if the current pass read anything without reaching the
// end, counts it as a pass.
func (c *Counting) Reset() {
	if c.read && !c.done {
		c.Passes++
	}
	c.read = false
	c.done = false
	c.inner.Reset()
}

// Digest returns a 64-bit FNV-1a digest of the edge sequence — order
// matters. The scenario harness records it so two runs of the same seeded
// spec can prove they drove the identical workload.
func Digest(edges []Edge) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, e := range edges {
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint64(byte(e.Set>>shift))) * prime
		}
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint64(byte(e.Elem>>shift))) * prime
		}
	}
	return h
}
