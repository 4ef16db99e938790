package graph

import (
	"context"

	"mcfs/internal/obs"
)

// checkEvery is the number of heap pops a graph search performs between
// context polls. Cooperative cancellation must be prompt without showing
// up in profiles: one atomic-free counter test per pop plus one ctx.Err
// call every 4096 pops is unmeasurable against the relaxation work of a
// road network, yet bounds the cancellation latency to a few thousand
// edge scans.
const checkEvery = 4096

// Dijkstra computes single-source shortest-path distances from src to all
// nodes, returning a dense distance slice with Inf for unreachable nodes.
func (g *Graph) Dijkstra(src int32) []int64 {
	dist, _ := g.DijkstraCtx(context.Background(), src)
	return dist
}

// DijkstraCtx is Dijkstra with cooperative cancellation: ctx is polled
// every checkEvery heap pops, and on cancellation the search stops and
// returns nil with ctx.Err(). An uncancelled run is identical to
// Dijkstra.
func (g *Graph) DijkstraCtx(ctx context.Context, src int32) ([]int64, error) {
	sc := g.newSearch()
	if err := g.search(ctx, sc, []int32{src}, nil, Inf, -1); err != nil {
		return nil, err
	}
	return sc.dist, nil
}

// MultiSourceDijkstraCtx computes, for every node, the distance to its
// nearest source and that source's index in sources. Nodes unreachable
// from all sources get distance Inf and owner -1. It implements network
// Voronoi partitioning (ties go to the source settled first, i.e., the
// lowest-distance one discovered earliest; a repeated source node keeps
// its first index). ctx is polled every checkEvery heap pops; on
// cancellation it returns nils and ctx.Err().
func (g *Graph) MultiSourceDijkstraCtx(ctx context.Context, sources []int32) (dist []int64, owner []int32, err error) {
	owner = make([]int32, g.N())
	for i := range owner {
		owner[i] = -1
	}
	sc := g.newSearch()
	if err := g.search(ctx, sc, sources, owner, Inf, -1); err != nil {
		return nil, nil, err
	}
	return sc.dist, owner, nil
}

// search is the one Dijkstra loop behind every search in this package
// except NNSearcher's resumable one. It settles nodes outward from
// sources (each at distance 0; a repeated source node keeps its first
// index) into sc, whose labels must be unset (newSearch, NewScratch, or
// begin), and:
//   - relaxes a label only while it stays within radius (Inf: no bound),
//     so bounded and unbounded searches share one compare per arc;
//   - when owner is non-nil, sets owner[v] to the index in sources of
//     the source that v's label comes from;
//   - stops once remaining, the number of distinct sc.want nodes not yet
//     settled, reaches zero (a negative count never does);
//   - records the labelled nodes in sc.visited in discovery order, unless
//     sc.visited is nil.
//
// Each node pops at its final distance exactly once (weights are
// positive and every queue surfaces superseded entries at larger keys),
// so the settled node needs no mark of its own. The work counters go to
// the recorder in ctx, if any, when the search returns. On cancellation
// it returns ctx.Err() and sc holds a partial search.
func (g *Graph) search(ctx context.Context, sc *SearchScratch, sources, owner []int32, radius int64, remaining int) error {
	// Locals, not sc's fields: the frontier calls are opaque to the
	// compiler, which would otherwise reload every slice header per arc.
	dist, want, h := sc.dist, sc.want, sc.frontier
	visited := sc.visited
	for idx, s := range sources {
		if dist[s] == 0 {
			continue // repeated source
		}
		dist[s] = 0
		if visited != nil {
			visited = append(visited, s)
		}
		if owner != nil {
			owner[s] = int32(idx)
		}
		h.Push(s, 0)
	}
	pops, relax := 0, 0
	if rec := obs.From(ctx); rec != nil {
		defer func() { flushSearchCounters(rec, h, int64(pops), int64(relax)) }()
	}
	for h.Len() > 0 && remaining != 0 {
		if pops++; pops&(checkEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				sc.visited = visited
				return err
			}
		}
		v, d := h.PopMin()
		if d > dist[v] {
			continue
		}
		if remaining > 0 && want[v] {
			remaining--
		}
		for i := g.off[v]; i < g.off[v+1]; i++ {
			u, nd := g.dst[i], d+g.w[i]
			if nd >= dist[u] || nd > radius {
				continue
			}
			if visited != nil && dist[u] == Inf {
				visited = append(visited, u)
			}
			dist[u] = nd
			if owner != nil {
				owner[u] = owner[v]
			}
			relax++
			h.Push(u, nd) // inserts u, or lowers its key: one call either way
		}
	}
	sc.visited = visited
	return nil
}
