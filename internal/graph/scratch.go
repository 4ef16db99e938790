package graph

import (
	"context"

	"mcfs/internal/pq"
)

// SearchScratch is the state of one graph search: dense per-node
// distance labels, the discovery order, and the frontier queue. Every
// Dijkstra in this package except NNSearcher runs on one (see search).
// Callers that issue thousands of bounded searches per solve (the BRNN
// attraction loop, objective recomputation, the k-source assignment
// lists) keep one and pass it to DijkstraWithinScratchCtx or
// DijkstraToTargetsScratchCtx: between searches only the labels of the
// nodes the last search touched are reset, so a search costs O(nodes
// touched), not O(N), and allocates nothing.
//
// A scratch is bound to the graph that created it and must not be used
// on another graph, nor concurrently; create one per goroutine instead.
// The results of the last search stay readable (Dist, Each, Visited)
// until the next search reuses the scratch.
type SearchScratch struct {
	dist     []int64 // Inf except at the nodes in visited
	want     []bool  // targets of the running DijkstraToTargetsScratchCtx
	visited  []int32 // labelled nodes in discovery order (deterministic)
	frontier pq.Monotone
}

// NewScratch returns a reusable scratch for searches on g. The frontier
// queue implementation is fixed at creation time by g's weight range
// (see bucketOK).
func (g *Graph) NewScratch() *SearchScratch {
	sc := g.newSearch()
	sc.want = make([]bool, len(sc.dist))
	sc.visited = make([]int32, 0, len(sc.dist))
	return sc
}

// newSearch returns the state of one whole-graph search whose result is
// sc.dist itself: every label Inf, no target marks, and a nil visited
// list, which tells search not to record the discovery order.
func (g *Graph) newSearch() *SearchScratch {
	sc := &SearchScratch{dist: make([]int64, g.N()), frontier: g.newDenseQueue()}
	for v := range sc.dist {
		sc.dist[v] = Inf
	}
	return sc
}

// begin resets the labels the last search set, in O(touched) time. A
// cancelled search leaves the scratch in the same resettable state.
func (sc *SearchScratch) begin() {
	sc.frontier.Reset()
	for _, v := range sc.visited {
		sc.dist[v] = Inf
	}
	sc.visited = sc.visited[:0]
}

// Dist returns the last search's distance to v and whether v was
// reached (relaxed within the search's bounds).
func (sc *SearchScratch) Dist(v int32) (int64, bool) {
	return sc.dist[v], sc.dist[v] < Inf
}

// Visited returns the number of nodes the last search reached.
func (sc *SearchScratch) Visited() int { return len(sc.visited) }

// Each calls fn for every node the last search reached, in discovery
// order (deterministic), until fn returns false.
func (sc *SearchScratch) Each(fn func(v int32, d int64) bool) {
	for _, v := range sc.visited {
		if !fn(v, sc.dist[v]) {
			return
		}
	}
}

// DijkstraWithinScratchCtx computes shortest-path distances from src to
// every node within radius (inclusive; a negative radius means
// unbounded) into sc: after a nil-error return, sc.Dist/sc.Each expose
// them. It is the workhorse of the BRNN baseline, whose search radius
// shrinks as facilities are placed. On cancellation (ctx is polled
// every checkEvery heap pops) it returns ctx.Err() and sc holds a
// partial search that must not be read.
func (g *Graph) DijkstraWithinScratchCtx(ctx context.Context, src int32, radius int64, sc *SearchScratch) error {
	if radius < 0 {
		radius = Inf
	}
	sc.begin()
	return g.search(ctx, sc, []int32{src}, nil, radius, -1)
}

// DijkstraToTargetsScratchCtx fills out[i] with the shortest-path
// distance from src to targets[i] (Inf when unreachable), stopping as
// soon as every distinct target is settled. len(out) must equal
// len(targets). On cancellation (ctx is polled every checkEvery heap
// pops) it returns ctx.Err() and out must not be read.
func (g *Graph) DijkstraToTargetsScratchCtx(ctx context.Context, src int32, targets []int32, out []int64, sc *SearchScratch) error {
	sc.begin()
	remaining := 0
	for _, t := range targets {
		if !sc.want[t] {
			sc.want[t] = true
			remaining++
		}
	}
	err := g.search(ctx, sc, []int32{src}, nil, Inf, remaining)
	for _, t := range targets {
		sc.want[t] = false
	}
	if err != nil {
		return err
	}
	// The search ran until every target settled or the frontier emptied,
	// so a labelled target holds its final distance.
	for i, t := range targets {
		out[i] = sc.dist[t]
	}
	return nil
}
