package graph

import "mcfs/internal/pq"

// queuePin overrides the frontier-queue choice of one Graph value. Only
// in-package tests set it, on a shallow copy of a built graph (the CSR
// arrays are immutable, so the copy shares them safely), to run every
// search under both queue implementations. The zero value leaves the
// choice to bucketOK.
type queuePin uint8

const (
	pinNone queuePin = iota
	pinHeap
	pinBucket
)

// maxWheel caps the Dial wheel size: beyond ~1M buckets the wheel's
// memory and cache footprint outweighs the log factor it saves.
const maxWheel = 1 << 20

// bucketOK is the queue-selection heuristic: a bucket wheel needs
// maxW+1 buckets, which is worth it only while that stays within a
// small multiple of the node count (the wheel must not dominate the
// search's own O(N) state) and below an absolute cap.
func (g *Graph) bucketOK() bool {
	if g.maxW <= 0 {
		return false
	}
	nb := g.maxW + 1
	return nb <= int64(4*g.N())+1024 && nb <= maxWheel
}

// newDenseQueue returns the frontier queue of a SearchScratch: a Dial
// bucket queue when bucketOK holds, else a DenseHeap over [0, N).
func (g *Graph) newDenseQueue() pq.Monotone {
	if g.pin == pinBucket || g.pin == pinNone && g.bucketOK() {
		return pq.NewBucket(g.maxW)
	}
	return pq.NewDense(g.N())
}

// newIncrementalQueue returns the frontier queue for incremental
// searches that advance a few pops at a time and may stop early
// (NNSearcher). The bucket queue loses there even when bucketOK holds:
// wheel setup and empty-bucket scanning cost O(maxW) per searcher
// regardless of how few nodes it settles, and a matcher creates one
// searcher per customer — so NNSearcher stays on the sparse heap unless
// a test pins the bucket queue.
func (g *Graph) newIncrementalQueue() pq.Monotone {
	if g.pin == pinBucket {
		return pq.NewBucket(g.maxW)
	}
	return pq.NewSparse()
}
