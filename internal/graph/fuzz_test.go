package graph

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// fuzzMod reduces a raw fuzz integer into [0, m) without overflowing on
// MinInt64 (whose negation is itself).
func fuzzMod(raw, m int64) int64 {
	v := raw % m
	if v < 0 {
		v += m
	}
	return v
}

// randomDisconnectedGraph builds a graph with (at least) two components:
// nodes below cut and nodes from cut up each get their own spanning
// tree, and extra edges never cross the cut.
func randomDisconnectedGraph(rng *rand.Rand, n, extraEdges int, maxW int64) *Graph {
	if n < 2 {
		panic("randomDisconnectedGraph needs n >= 2")
	}
	b := NewBuilder(n, false)
	cut := 1 + rng.Intn(n-1)
	for i := 1; i < n; i++ {
		if i == cut {
			continue // cut starts the second component
		}
		var j int
		if i < cut {
			j = rng.Intn(i)
		} else {
			j = cut + rng.Intn(i-cut)
		}
		b.AddEdge(int32(i), int32(j), 1+rng.Int63n(maxW))
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || (u < cut) != (v < cut) {
			continue
		}
		b.AddEdge(int32(u), int32(v), 1+rng.Int63n(maxW))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// checkWithin fails t unless sc holds exactly the nodes within radius
// of the source (every reachable node when radius is negative), each at
// its reference distance ref, in Dist, Visited and Each.
func checkWithin(t *testing.T, sc *SearchScratch, ref []int64, radius int64) {
	t.Helper()
	reached := 0
	for v, d := range ref {
		in := d < Inf && (radius < 0 || d <= radius)
		got, ok := sc.Dist(int32(v))
		if ok != in || (in && got != d) {
			t.Fatalf("radius %d: Dist(%d) = (%d,%v), want (%d,%v)", radius, v, got, ok, d, in)
		}
		if in {
			reached++
		}
	}
	if sc.Visited() != reached {
		t.Fatalf("radius %d: Visited() = %d, want %d", radius, sc.Visited(), reached)
	}
	seen := 0
	sc.Each(func(v int32, d int64) bool {
		if d != ref[v] {
			t.Fatalf("radius %d: Each(%d) = %d, want %d", radius, v, d, ref[v])
		}
		seen++
		return true
	})
	if seen != reached {
		t.Fatalf("radius %d: Each visited %d nodes, want %d", radius, seen, reached)
	}
}

// checkToTargets fails t unless out[i] is the reference distance ref of
// targets[i] (Inf when unreachable).
func checkToTargets(t *testing.T, out []int64, targets []int32, ref []int64) {
	t.Helper()
	for i, tg := range targets {
		if out[i] != ref[tg] {
			t.Fatalf("out[%d] (target %d) = %d, want %d", i, tg, out[i], ref[tg])
		}
	}
}

// checkMultiSource fails t unless dist is the minimum over the
// per-source reference distances and every reached node's owner is a
// source achieving that minimum (owner -1 exactly where unreachable).
func checkMultiSource(t *testing.T, dist []int64, owner []int32, per [][]int64) {
	t.Helper()
	for v := range dist {
		best := Inf
		for _, ref := range per {
			best = min(best, ref[v])
		}
		if dist[v] != best {
			t.Fatalf("multi-source dist[%d] = %d, want %d", v, dist[v], best)
		}
		if best == Inf {
			if owner[v] != -1 {
				t.Fatalf("unreachable node %d has owner %d", v, owner[v])
			}
		} else if owner[v] < 0 || int(owner[v]) >= len(per) || per[owner[v]][v] != best {
			t.Fatalf("node %d: owner %d does not achieve the min distance %d", v, owner[v], best)
		}
	}
}

// FuzzDijkstra cross-checks every search entry point, under both
// frontier queues, against the Bellman-Ford reference on random graphs,
// connected and disconnected — the disconnected half pins the Inf
// convention for unreachable nodes. The Within radius, the targets
// (with a duplicate and, when one exists, an unreachable node) and the
// multi-source set (with a repeated node) are drawn from the fuzzed
// seed.
func FuzzDijkstra(f *testing.F) {
	f.Add(int64(1), int64(12), int64(20), int64(50), false)
	f.Add(int64(2), int64(30), int64(0), int64(1), true)
	f.Add(int64(-5), int64(5), int64(40), int64(1000), true)
	f.Add(int64(99), int64(58), int64(120), int64(7), false)
	f.Add(int64(1234), int64(2), int64(3), int64(9), true)
	f.Fuzz(func(t *testing.T, seed, nRaw, extraRaw, maxWRaw int64, disconnect bool) {
		n := 2 + int(fuzzMod(nRaw, 60))
		extra := int(fuzzMod(extraRaw, int64(2*n)))
		maxW := 1 + fuzzMod(maxWRaw, 100)

		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		if disconnect {
			g = randomDisconnectedGraph(rng, n, extra, maxW)
		} else {
			g = randomGraph(rng, n, extra, maxW)
		}
		src := int32(rng.Intn(n))
		want := bellmanFord(g, src)
		if disconnect && !slices.Contains(want, Inf) {
			t.Fatalf("disconnected graph reports every node reachable from %d (n=%d seed=%d)", src, n, seed)
		}
		radius := rng.Int63n(maxW*int64(n)) - 1 // -1: unbounded
		targets := []int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		targets = append(targets, targets[0])
		if u := slices.Index(want, Inf); u >= 0 {
			targets = append(targets, int32(u))
		}
		sources := []int32{int32(rng.Intn(n)), src, int32(rng.Intn(n))}
		sources = append(sources, sources[0])
		per := make([][]int64, len(sources))
		for i, s := range sources {
			per[i] = bellmanFord(g, s)
		}

		ctx := context.Background()
		for _, pin := range []queuePin{pinHeap, pinBucket} {
			pg := pinned(g, pin)
			got, err := pg.DijkstraCtx(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("pin %d: Dijkstra = %v, want %v (n=%d src=%d maxW=%d seed=%d)", pin, got, want, n, src, maxW, seed)
			}
			dist, owner, err := pg.MultiSourceDijkstraCtx(ctx, sources)
			if err != nil {
				t.Fatal(err)
			}
			checkMultiSource(t, dist, owner, per)
			sc := pg.NewScratch()
			if err := pg.DijkstraWithinScratchCtx(ctx, src, radius, sc); err != nil {
				t.Fatal(err)
			}
			checkWithin(t, sc, want, radius)
			out := make([]int64, len(targets))
			if err := pg.DijkstraToTargetsScratchCtx(ctx, src, targets, out, sc); err != nil {
				t.Fatal(err)
			}
			checkToTargets(t, out, targets, want)
		}
	})
}
