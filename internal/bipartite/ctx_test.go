package bipartite

import (
	"context"
	"errors"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

func ctxTestMatcher(t *testing.T) *Matcher {
	t.Helper()
	b := graph.NewBuilder(6, false)
	for i := 0; i < 5; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	facs := []data.Facility{{Node: 0, Capacity: 1}, {Node: 5, Capacity: 1}}
	return New(g, []int32{2, 3}, facs)
}

func TestFindPairCtxCancelledLeavesMatchingUntouched(t *testing.T) {
	mt := ctxTestMatcher(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	matched, err := mt.FindPairCtx(ctx, 0)
	if matched {
		t.Fatal("cancelled FindPairCtx reported a match")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if mt.MatchCount(0) != 0 {
		t.Fatalf("MatchCount(0) = %d after cancelled call, want 0", mt.MatchCount(0))
	}
}

func TestFindPairCtxBackgroundMatchesFindPair(t *testing.T) {
	a, b := ctxTestMatcher(t), ctxTestMatcher(t)
	for i := 0; i < 2; i++ {
		want := a.FindPair(i)
		got, err := b.FindPairCtx(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("customer %d: FindPairCtx = %v, FindPair = %v", i, got, want)
		}
	}
	for i := 0; i < 2; i++ {
		af, aw := a.Matches(i)
		bf, bw := b.Matches(i)
		if len(af) != len(bf) {
			t.Fatalf("customer %d: match counts differ", i)
		}
		for x := range af {
			if af[x] != bf[x] || aw[x] != bw[x] {
				t.Fatalf("customer %d: matches differ", i)
			}
		}
	}
}

// TestListFedMatcher covers the list source's edges: an empty list is a
// customer with no reachable facility, and a list-fed matcher refuses
// to grow.
func TestListFedMatcher(t *testing.T) {
	facs := []data.Facility{{Node: 0, Capacity: 1}, {Node: 5, Capacity: 1}}
	mt := NewFromLists([]int32{2, 3, 4}, facs, [][]Candidate{
		{{Fac: 0, W: 2}, {Fac: 1, W: 3}},
		{{Fac: 0, W: 3}, {Fac: 1, W: 2}},
		nil,
	})
	for i, want := range []bool{true, true, false} {
		if got := mt.FindPair(i); got != want {
			t.Fatalf("FindPair(%d) = %v, want %v", i, got, want)
		}
	}
	if got := mt.TotalMatchedCost(); got != 4 {
		t.Fatalf("cost = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddCustomer on a list-fed matcher did not panic")
		}
	}()
	mt.AddCustomer(1)
}
