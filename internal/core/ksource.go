package core

import (
	"context"
	"slices"
	"sync"

	"mcfs/internal/bipartite"
	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// kSourceRatio is the constant c of the candidate-source routing rule
// k² ≤ c·m (useKSource). The k facility-side searches cost about k
// whole-network Dijkstras; the lazy per-customer searchers cost about m
// expansions that each run until the customer's matched facility is
// settled, a region of roughly n/k nodes. Their ratio grows with k²/m.
// The (m, k) sweep in DESIGN.md §11 puts the crossover at k²/m ≈ 5.5 on
// the densest graph family measured (the mcfsd serving network) and at
// 8–12 on road networks; c = 5 keeps every routed point a win.
const kSourceRatio = 5

// useKSource is the routing rule for AssignToSelection's candidate-edge
// source: the k-source lists when the selection is sparse relative to
// the customers (k² ≤ kSourceRatio·m) and the graph is undirected, so a
// search from a facility yields customer→facility distances. Everything
// else stays on the lazy per-customer searchers.
func useKSource(g *graph.Graph, m, k int) bool {
	return !g.Directed() && k > 0 && k*k <= kSourceRatio*m
}

// kSourceBufs is the reusable state of one k-source list build: the
// search scratch (bound to g) and the m×k candidate buffers.
type kSourceBufs struct {
	g     *graph.Graph
	sc    *graph.SearchScratch
	col   []int64                 // one facility's distances to every customer
	flat  []bipartite.Candidate   // m×k backing store, customer-major
	lists [][]bipartite.Candidate // per-customer windows into flat
}

// kSourcePool recycles kSourceBufs across AssignToSelection calls (the
// exact solver and local search issue thousands per solve). A pooled
// scratch is reused only on the graph it was built for.
var kSourcePool sync.Pool

// getKSourceBufs returns buffers sized for m customers and k facilities
// whose scratch belongs to g.
func getKSourceBufs(g *graph.Graph, m, k int) *kSourceBufs {
	b, _ := kSourcePool.Get().(*kSourceBufs)
	if b == nil {
		b = &kSourceBufs{}
	}
	if b.g != g {
		b.g, b.sc = g, g.NewScratch()
	}
	b.col = slices.Grow(b.col[:0], m)[:m]
	b.flat = slices.Grow(b.flat[:0], m*k)[:m*k]
	b.lists = slices.Grow(b.lists[:0], m)[:m]
	return b
}

// kSourceLists builds every customer's candidate list over the selected
// facilities from k targeted searches, one from each selected facility
// to the customer nodes (undirected graph: the distance is symmetric).
// Each list holds the reachable facilities as indexes into selected;
// bipartite.NewFromLists orders them by (distance, index), so equal
// distances go by position in selected. The lists alias b's buffers;
// they are valid until b returns to the pool. On cancellation it
// returns ctx.Err().
func kSourceLists(ctx context.Context, inst *data.Instance, selected []int, b *kSourceBufs) ([][]bipartite.Candidate, error) {
	m, k := inst.M(), len(selected)
	for i := range b.lists {
		b.lists[i] = b.flat[i*k : i*k : (i+1)*k]
	}
	for idx, j := range selected {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := inst.G.DijkstraToTargetsScratchCtx(ctx, inst.Facilities[j].Node, inst.Customers, b.col, b.sc); err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			if d := b.col[i]; d < graph.Inf {
				b.lists[i] = append(b.lists[i], bipartite.Candidate{Fac: int32(idx), W: d})
			}
		}
	}
	return b.lists, nil
}
