package graph

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mcfs/internal/obs"
)

// pinned returns a shallow copy of g whose searches use the given
// frontier queue regardless of bucketOK. The copy shares g's immutable
// CSR arrays.
func pinned(g *Graph, pin queuePin) *Graph {
	c := *g
	c.pin = pin
	return &c
}

// scratchRun is the observable result of one scratch search: every
// node's Dist and the Each discovery order.
type scratchRun struct {
	dist  []int64
	order []int32
}

func snapshot(sc *SearchScratch, n int) scratchRun {
	r := scratchRun{dist: make([]int64, n)}
	for v := range r.dist {
		r.dist[v], _ = sc.Dist(int32(v))
	}
	sc.Each(func(v int32, _ int64) bool {
		r.order = append(r.order, v)
		return true
	})
	return r
}

// TestQueuePinsByteIdentical is the determinism acceptance check for
// the queue swap: single-source distances, multi-source distances AND
// owners (tie-sensitive), the scratch searches' distances and Each
// discovery order (which BRNN iterates), and the full NNSearcher
// enumeration order must be byte-identical under the heap and the
// bucket queue.
func TestQueuePinsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(60)
		maxW := int64(1 + rng.Intn(8)) // small spread: many equal distances
		g := randomGraph(rng, n, 3*n, maxW)
		src := int32(rng.Intn(n))
		sources := []int32{src, int32(rng.Intn(n)), int32(rng.Intn(n))}
		radius := int64(rng.Intn(3 * int(maxW)))
		targets := []int32{int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = rng.Intn(3) == 0
		}
		mask[rng.Intn(n)] = true

		type result struct {
			dist      []int64
			msDist    []int64
			msOwner   []int32
			within    scratchRun
			toTargets scratchRun
			out       []int64
			nnNodes   []int32
			nnDists   []int64
		}
		runAll := func(g *Graph) result {
			var r result
			r.dist = g.Dijkstra(src)
			var err error
			if r.msDist, r.msOwner, err = g.MultiSourceDijkstraCtx(ctx, sources); err != nil {
				t.Fatal(err)
			}
			sc := g.NewScratch()
			if err := g.DijkstraWithinScratchCtx(ctx, src, radius, sc); err != nil {
				t.Fatal(err)
			}
			r.within = snapshot(sc, n)
			r.out = make([]int64, len(targets))
			if err := g.DijkstraToTargetsScratchCtx(ctx, src, targets, r.out, sc); err != nil {
				t.Fatal(err)
			}
			r.toTargets = snapshot(sc, n)
			s := NewNNSearcher(g, src, mask)
			for {
				node, d, ok := s.Next()
				if !ok {
					break
				}
				r.nnNodes = append(r.nnNodes, node)
				r.nnDists = append(r.nnDists, d)
			}
			return r
		}
		heap := runAll(pinned(g, pinHeap))
		bucket := runAll(pinned(g, pinBucket))

		for v := range heap.dist {
			if heap.dist[v] != bucket.dist[v] {
				t.Fatalf("trial %d: dist[%d] heap=%d bucket=%d", trial, v, heap.dist[v], bucket.dist[v])
			}
			if heap.msDist[v] != bucket.msDist[v] || heap.msOwner[v] != bucket.msOwner[v] {
				t.Fatalf("trial %d: multi-source node %d heap=(%d,%d) bucket=(%d,%d)",
					trial, v, heap.msDist[v], heap.msOwner[v], bucket.msDist[v], bucket.msOwner[v])
			}
		}
		if !reflect.DeepEqual(heap.within, bucket.within) {
			t.Fatalf("trial %d: Within heap=%v bucket=%v", trial, heap.within, bucket.within)
		}
		if !reflect.DeepEqual(heap.toTargets, bucket.toTargets) || !reflect.DeepEqual(heap.out, bucket.out) {
			t.Fatalf("trial %d: ToTargets heap=%v %v bucket=%v %v", trial, heap.out, heap.toTargets, bucket.out, bucket.toTargets)
		}
		if len(heap.nnNodes) != len(bucket.nnNodes) {
			t.Fatalf("trial %d: NN enumerated %d vs %d candidates", trial, len(heap.nnNodes), len(bucket.nnNodes))
		}
		for i := range heap.nnNodes {
			if heap.nnNodes[i] != bucket.nnNodes[i] || heap.nnDists[i] != bucket.nnDists[i] {
				t.Fatalf("trial %d: NN step %d heap=(%d,%d) bucket=(%d,%d)", trial, i,
					heap.nnNodes[i], heap.nnDists[i], bucket.nnNodes[i], bucket.nnDists[i])
			}
		}
	}
}

// TestBucketHeuristic pins the queue-selection rule: small weight
// ranges get the wheel, wide ones fall back to the heap.
func TestBucketHeuristic(t *testing.T) {
	small, err := NewBuilder(4, false).AddEdge(0, 1, 5).AddEdge(1, 2, 7).AddEdge(2, 3, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !small.bucketOK() {
		t.Errorf("bucketOK = false for maxW=%d n=%d, want true", small.MaxEdgeWeight(), small.N())
	}
	wide, err := NewBuilder(4, false).AddEdge(0, 1, maxWheel+5).AddEdge(1, 2, 7).Build()
	if err != nil {
		t.Fatal(err)
	}
	if wide.bucketOK() {
		t.Errorf("bucketOK = true for maxW=%d n=%d, want false", wide.MaxEdgeWeight(), wide.N())
	}
	if small.MaxEdgeWeight() != 7 {
		t.Errorf("MaxEdgeWeight = %d, want 7", small.MaxEdgeWeight())
	}
}

// TestScratchWithinMatchesMap cross-checks the scratch Within search
// against the Bellman-Ford oracle on random graphs, reusing one scratch
// across trials to exercise epoch invalidation.
func TestScratchWithinMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	g := randomGraph(rng, 80, 200, 9)
	sc := g.NewScratch()
	for trial := 0; trial < 40; trial++ {
		src := int32(rng.Intn(g.N()))
		radius := int64(rng.Intn(30)) - 1 // includes -1 = unbounded
		if err := g.DijkstraWithinScratchCtx(ctx, src, radius, sc); err != nil {
			t.Fatal(err)
		}
		checkWithin(t, sc, bellmanFord(g, src), radius)
	}
}

// TestScratchToTargetsMatchesMap cross-checks the scratch ToTargets
// search (including unreachable targets and duplicates) against the
// Bellman-Ford oracle, reusing one scratch.
func TestScratchToTargetsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ctx := context.Background()
	g := randomDisconnectedGraph(rng, 70, 120, 9)
	sc := g.NewScratch()
	for trial := 0; trial < 40; trial++ {
		src := int32(rng.Intn(g.N()))
		targets := make([]int32, 1+rng.Intn(8))
		for i := range targets {
			targets[i] = int32(rng.Intn(g.N()))
		}
		if rng.Intn(2) == 0 {
			targets = append(targets, targets[0]) // duplicate target
		}
		out := make([]int64, len(targets))
		if err := g.DijkstraToTargetsScratchCtx(ctx, src, targets, out, sc); err != nil {
			t.Fatal(err)
		}
		checkToTargets(t, out, targets, bellmanFord(g, src))
	}
}

// TestScratchCancellation checks both scratch searches surface
// ctx.Err() on a cancelled context.
func TestScratchCancellation(t *testing.T) {
	g := longLine(t, 3*checkEvery)
	sc := g.NewScratch()
	if err := g.DijkstraWithinScratchCtx(cancelledCtx(), 0, -1, sc); err == nil {
		t.Fatal("DijkstraWithinScratchCtx ignored a cancelled context")
	}
	out := make([]int64, 1)
	if err := g.DijkstraToTargetsScratchCtx(cancelledCtx(), 0, []int32{int32(g.N() - 1)}, out, sc); err == nil {
		t.Fatal("DijkstraToTargetsScratchCtx ignored a cancelled context")
	}
}

// TestScratchReuseResetsLabels checks that a reused scratch carries no
// distance label or target mark over from its previous search, whether
// that search completed or was cancelled midway: searches on the reused
// scratch must match the same searches on a fresh one.
func TestScratchReuseResetsLabels(t *testing.T) {
	g := longLine(t, 3*checkEvery)
	n := int32(g.N())
	ctx := context.Background()
	within := func(sc *SearchScratch, src int32, radius int64) scratchRun {
		if err := g.DijkstraWithinScratchCtx(ctx, src, radius, sc); err != nil {
			t.Fatal(err)
		}
		return snapshot(sc, int(n))
	}
	toTargets := func(sc *SearchScratch, src int32, targets []int32) []int64 {
		out := make([]int64, len(targets))
		if err := g.DijkstraToTargetsScratchCtx(ctx, src, targets, out, sc); err != nil {
			t.Fatal(err)
		}
		return out
	}

	sc := g.NewScratch()
	within(sc, 0, -1) // labels every node
	if got, want := within(sc, n/2, 10), within(g.NewScratch(), n/2, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("Within after a completed search = %v, want %v", got, want)
	}
	// The cancelled search stops at its first context poll, leaving
	// about checkEvery nodes labelled and both targets marked.
	if err := g.DijkstraToTargetsScratchCtx(cancelledCtx(), 0, []int32{n - 1, 5}, make([]int64, 2), sc); err == nil {
		t.Fatal("DijkstraToTargetsScratchCtx ignored a cancelled context")
	}
	if got, want := within(sc, n/2, 10), within(g.NewScratch(), n/2, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("Within after a cancelled search = %v, want %v", got, want)
	}
	targets := []int32{n/2 + 3, n/2 - 7, n/2 + 3}
	if got, want := toTargets(sc, n/2, targets), toTargets(g.NewScratch(), n/2, targets); !reflect.DeepEqual(got, want) {
		t.Fatalf("ToTargets after a cancelled search = %v, want %v", got, want)
	}
	for v, marked := range sc.want {
		if marked {
			t.Fatalf("node %d still marked as a target", v)
		}
	}
}

// TestSearchWorkCounters pins the frontier pops and successful
// relaxations each search entry point reports to an obs recorder on a
// fixed graph, under both queues. The pinned values were taken from
// per-entry-point loops written independently of the shared kernel, so
// a mismatch means the kernel does different work, not just different
// bookkeeping. The bucket queue pops superseded entries too, hence its
// larger pop counts.
func TestSearchWorkCounters(t *testing.T) {
	base := randomDisconnectedGraph(rand.New(rand.NewSource(21)), 200, 300, 12)
	type counts struct{ pops, relax int64 }
	cases := []struct {
		name         string
		run          func(ctx context.Context, g *Graph, sc *SearchScratch) error
		heap, bucket counts
	}{
		{"Dijkstra", func(ctx context.Context, g *Graph, _ *SearchScratch) error {
			_, err := g.DijkstraCtx(ctx, 7)
			return err
		}, counts{120, 141}, counts{142, 141}},
		{"MultiSourceDijkstra", func(ctx context.Context, g *Graph, _ *SearchScratch) error {
			_, _, err := g.MultiSourceDijkstraCtx(ctx, []int32{3, 150, 3, 77})
			return err
		}, counts{200, 239}, counts{242, 239}},
		{"Within", func(ctx context.Context, g *Graph, sc *SearchScratch) error {
			return g.DijkstraWithinScratchCtx(ctx, 7, 10, sc)
		}, counts{18, 18}, counts{19, 18}},
		{"WithinUnbounded", func(ctx context.Context, g *Graph, sc *SearchScratch) error {
			return g.DijkstraWithinScratchCtx(ctx, 150, -1, sc)
		}, counts{80, 92}, counts{93, 92}},
		{"ToTargets", func(ctx context.Context, g *Graph, sc *SearchScratch) error {
			return g.DijkstraToTargetsScratchCtx(ctx, 7, []int32{11, 4, 11, 89}, make([]int64, 4), sc)
		}, counts{12, 43}, counts{12, 43}},
		{"ToTargetsUnreachable", func(ctx context.Context, g *Graph, sc *SearchScratch) error {
			return g.DijkstraToTargetsScratchCtx(ctx, 7, []int32{12, 199, 0, 9}, make([]int64, 4), sc)
		}, counts{120, 141}, counts{142, 141}},
	}
	for _, q := range []struct {
		name string
		pin  queuePin
	}{{"heap", pinHeap}, {"bucket", pinBucket}} {
		g := pinned(base, q.pin)
		sc := g.NewScratch() // reused, as the scratch callers do
		for _, c := range cases {
			rec := obs.New()
			if err := c.run(obs.WithRecorder(context.Background(), rec), g, sc); err != nil {
				t.Fatal(err)
			}
			got := counts{rec.Counter(obs.DijkstraHeapPops), rec.Counter(obs.DijkstraRelaxations)}
			want := c.heap
			if q.pin == pinBucket {
				want = c.bucket
			}
			if got != want {
				t.Errorf("%s/%s: (pops, relaxations) = %v, want %v", q.name, c.name, got, want)
			}
		}
	}
}
