package graph

import "mcfs/internal/pq"

// MultiSourceTwoNearest computes, for every node, its nearest and
// second-nearest sources (by shortest-path distance, distinct sources)
// and the corresponding distances. Unreached slots hold owner -1 and
// distance Inf. It generalizes network Voronoi partitioning to the
// two-label case needed by the Voronoi/triangle customer-distribution
// model (§VII-F.1): the second label identifies the "triangle" (adjacent
// cell) a node belongs to within its Voronoi cell.
func (g *Graph) MultiSourceTwoNearest(sources []int32) (owner [2][]int32, dist [2][]int64) {
	n := g.N()
	for s := 0; s < 2; s++ {
		owner[s] = make([]int32, n)
		dist[s] = make([]int64, n)
		for i := 0; i < n; i++ {
			owner[s][i] = -1
			dist[s][i] = Inf
		}
	}
	// Label-setting search over (node, source) pairs: each node accepts
	// up to two labels from distinct sources. The heap holds one label
	// per relaxation, pushed without decrease-key; labels popped for a
	// node that already holds two, or a second one from the source that
	// filled its first slot, are discarded.
	type label struct {
		node int32
		src  int32
		d    int64
	}
	h := pq.NewHeap[label](func(a, b label) bool { return a.d < b.d })
	for idx, s := range sources {
		h.Push(label{node: s, src: int32(idx), d: 0})
	}
	accepted := make([]int, n)
	for h.Len() > 0 {
		lb := h.Pop()
		v := lb.node
		if accepted[v] >= 2 {
			continue
		}
		if accepted[v] == 1 && owner[0][v] == lb.src {
			continue // same source cannot fill both slots
		}
		slot := accepted[v]
		owner[slot][v] = lb.src
		dist[slot][v] = lb.d
		accepted[v]++
		g.Neighbors(v, func(u int32, w int64) bool {
			if accepted[u] < 2 {
				h.Push(label{node: u, src: lb.src, d: lb.d + w})
			}
			return true
		})
	}
	return owner, dist
}
