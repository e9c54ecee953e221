package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"streamcover"
)

// The input generator is deliberately self-contained: it draws every
// input from one math/rand source seeded by -seed and imports none of the
// repository's workload or scenario packages, so no change to the product
// can move the inputs a benchmark run sees. input_sha256 fingerprints
// the result; two runs (on any two commits) with equal fingerprints fed
// the daemon identical bytes.

// sessionSpec is one estimation session: its create parameters.
type sessionSpec struct {
	Name    string
	M, N, K int
	Alpha   float64
	Seed    int64
}

// batch is one ingest frame's worth of edges for one session.
type batch struct {
	Session int
	Edges   []streamcover.Edge
}

// columns splits the batch into the set-ID and element-ID columns the
// wire encoder and the estimators' columnar entry points take.
func (b batch) columns() (sets, elems []uint32) {
	sets = make([]uint32, len(b.Edges))
	elems = make([]uint32, len(b.Edges))
	for i, e := range b.Edges {
		sets[i], elems[i] = e.Set, e.Elem
	}
	return sets, elems
}

// inputs is everything one workload run sends. Preload and Tail are
// set-up traffic; Timed is the timed window's write stream in send order;
// Post is written at each crash-recover restart; Queries lists, in order,
// the session each open-loop query targets.
type inputs struct {
	Sessions []sessionSpec
	Preload  []batch
	Tail     []batch
	Timed    []batch
	Post     []batch
	Queries  []int
	SHA256   string
}

// edgeCount sums the edges of a batch list.
func edgeCount(bs []batch) int {
	n := 0
	for _, b := range bs {
		n += len(b.Edges)
	}
	return n
}

// generate builds a workload's inputs from its spec, the seed and the
// timed window's length. Edges are uniform over [0,m)×[0,n) per session;
// multi-session streams pick each batch's session by Zipf(spec.Zipf).
func generate(sp spec, seed int64, seconds float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < sp.Sessions; i++ {
		in.Sessions = append(in.Sessions, sessionSpec{
			Name: fmt.Sprintf("%s-%02d", sp.Name, i),
			M:    sp.M, N: sp.N, K: sp.K, Alpha: sp.Alpha,
			Seed: rng.Int63n(1<<31) + 1,
		})
	}
	pick := func() int { return 0 }
	if sp.Sessions > 1 {
		z := rand.NewZipf(rng, sp.Zipf, 1, uint64(sp.Sessions-1))
		pick = func() int { return int(z.Uint64()) }
	}
	mk := func(sess, size int) batch {
		s := in.Sessions[sess]
		es := make([]streamcover.Edge, size)
		for i := range es {
			es[i] = streamcover.Edge{Set: uint32(rng.Int31n(int32(s.M))), Elem: uint32(rng.Int31n(int32(s.N)))}
		}
		return batch{Session: sess, Edges: es}
	}
	// Set-up traffic: every session gets PreloadPerSession edges in
	// PreloadBatch-edge batches, round-robin so each session's checkpoint
	// carries state.
	for left := sp.PreloadPerSession; left > 0; left -= sp.PreloadBatch {
		size := min(left, sp.PreloadBatch)
		for s := range in.Sessions {
			in.Preload = append(in.Preload, mk(s, size))
		}
	}
	for left := sp.Tail; left > 0; left -= sp.Batch {
		in.Tail = append(in.Tail, mk(0, min(left, sp.Batch)))
	}
	// Timed batches are all full, so the client frames each on Send.
	timedEdges := sp.ClosedLoopRate * seconds
	if sp.Rate > 0 {
		timedEdges = sp.Rate * seconds
	}
	for i := int(math.Ceil(timedEdges / float64(sp.Batch))); i > 0; i-- {
		in.Timed = append(in.Timed, mk(pick(), sp.Batch))
	}
	for i := 0; i < sp.PostWrites; i++ {
		in.Post = append(in.Post, mk(0, sp.Batch))
	}
	for i := int(math.Ceil(sp.QueryRate * seconds)); i > 0; i-- {
		in.Queries = append(in.Queries, pick())
	}
	in.SHA256 = fingerprint(sp.Name, in)
	return in
}

// fingerprint hashes everything the daemon will be sent.
func fingerprint(workload string, in *inputs) string {
	h := sha256.New()
	var buf []byte
	buf = append(buf, workload...)
	for _, s := range in.Sessions {
		buf = append(buf, s.Name...)
		for _, v := range []int64{int64(s.M), int64(s.N), int64(s.K), int64(math.Float64bits(s.Alpha)), s.Seed} {
			buf = binary.AppendVarint(buf, v)
		}
	}
	h.Write(buf)
	for _, list := range [][]batch{in.Preload, in.Tail, in.Timed, in.Post} {
		buf = binary.AppendUvarint(buf[:0], uint64(len(list)))
		h.Write(buf)
		for _, b := range list {
			buf = binary.AppendUvarint(buf[:0], uint64(b.Session))
			buf = binary.AppendUvarint(buf, uint64(len(b.Edges)))
			for _, e := range b.Edges {
				buf = binary.LittleEndian.AppendUint32(buf, e.Set)
				buf = binary.LittleEndian.AppendUint32(buf, e.Elem)
			}
			h.Write(buf)
		}
	}
	buf = buf[:0]
	for _, q := range in.Queries {
		buf = binary.AppendUvarint(buf, uint64(q))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
