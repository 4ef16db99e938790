package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// TestAssignTieRuleEarlierInSelected pins the k-source tie rule: a
// customer equidistant from two selected facilities with spare capacity
// goes to the one earlier in selected. The lazy source breaks the same
// tie by its searcher's settle order (here: facility 0, relaxed first),
// so the two sources agree when selected lists facility 0 first and may
// differ, at the same objective, when it does not.
func TestAssignTieRuleEarlierInSelected(t *testing.T) {
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1, 5).AddEdge(0, 2, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{0},
		Facilities: []data.Facility{{Node: 1, Capacity: 2}, {Node: 2, Capacity: 2}},
		K:          2,
	}
	for _, tc := range []struct {
		selected []int
		kSource  bool
		want     int
	}{
		{[]int{0, 1}, true, 0},
		{[]int{0, 1}, false, 0},
		{[]int{1, 0}, true, 1},
		{[]int{1, 0}, false, 0},
	} {
		sol, err := assignToSelection(context.Background(), inst, tc.selected, Options{}, tc.kSource)
		if err != nil {
			t.Fatalf("selected %v kSource=%v: %v", tc.selected, tc.kSource, err)
		}
		if got := sol.Assignment[0]; got != tc.want || sol.Objective != 5 {
			t.Fatalf("selected %v kSource=%v: customer -> facility %d (objective %d), want %d (objective 5)",
				tc.selected, tc.kSource, got, sol.Objective, tc.want)
		}
	}
}

// TestUseKSourceRule pins the routing rule k² ≤ 5·m on undirected graphs
// at the sizes the rule was fitted on.
func TestUseKSourceRule(t *testing.T) {
	und := pathGraph(t, 3)
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 1)
	dir, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g    *graph.Graph
		m, k int
		want bool
	}{
		{und, 2000, 60, true},  // Copenhagen WMA final assignment
		{und, 30, 4, true},     // small exact B&B node
		{und, 30, 12, true},    // B&B relaxation with 12 candidates open
		{und, 30, 13, false},   // ... and with 13
		{und, 200, 40, false},  // mcfsd serving instance
		{und, 20, 10, true},    // boundary: k² = 5m
		{und, 20, 11, false},   // one past it
		{und, 10, 0, false},    // empty selection
		{dir, 2000, 60, false}, // directed graphs stay lazy
	} {
		if got := useKSource(tc.g, tc.m, tc.k); got != tc.want {
			t.Errorf("useKSource(directed=%v, m=%d, k=%d) = %v, want %v", tc.g.Directed(), tc.m, tc.k, got, tc.want)
		}
	}
}

// randomAssignInstance draws a random undirected instance and a
// selection of it. With several components and tight capacities some
// draws leave customers unable to reach any selected facility with
// spare capacity, so both the feasible and the infeasible path are hit.
func randomAssignInstance(rng *rand.Rand, m, l, k, maxCap int) (*data.Instance, []int) {
	n := m + l + 4 + rng.Intn(40)
	comps := 1 + rng.Intn(2)
	b := graph.NewBuilder(n, false)
	for i := 1; i < n; i++ {
		if i%(n/comps+1) != 0 { // each block is a random tree
			b.AddEdge(int32(i-1-rng.Intn(i%(n/comps+1))), int32(i), 1+rng.Int63n(9))
		}
	}
	for e := 0; e < n/3; e++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v && u/(n/comps+1) == v/(n/comps+1) {
			b.AddEdge(int32(u), int32(v), 1+rng.Int63n(9))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	perm := rng.Perm(n)
	custs := make([]int32, m)
	for i := range custs {
		// Duplicate customer locations are legal and make ties likely.
		custs[i] = int32(perm[rng.Intn(m)])
	}
	facs := make([]data.Facility, l)
	for j := range facs {
		facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: 1 + rng.Intn(maxCap)}
	}
	selected := rng.Perm(l)[:k]
	return &data.Instance{G: g, Customers: custs, Facilities: facs, K: k}, selected
}

// checkSourcesAgree runs both candidate sources on one selection and
// fails unless they return the same objective (each passing
// CheckSolution) or the same infeasibility error; it reports whether
// the assignment was infeasible.
func checkSourcesAgree(t *testing.T, inst *data.Instance, selected []int, opt Options) (infeasible bool) {
	t.Helper()
	lazy, lerr := assignToSelection(context.Background(), inst, selected, opt, false)
	eager, kerr := assignToSelection(context.Background(), inst, selected, opt, true)
	if lerr != nil || kerr != nil {
		if lerr == nil || kerr == nil || lerr.Error() != kerr.Error() || !errors.Is(kerr, data.ErrInfeasible) {
			t.Fatalf("sources disagree on failure: lazy %v, k-source %v", lerr, kerr)
		}
		return true
	}
	if lazy.Objective != eager.Objective {
		t.Fatalf("objective: lazy %d, k-source %d (selected %v)", lazy.Objective, eager.Objective, selected)
	}
	for name, sol := range map[string]*data.Solution{"lazy": lazy, "k-source": eager} {
		if _, err := inst.CheckSolution(sol); err != nil {
			t.Fatalf("%s solution invalid: %v", name, err)
		}
	}
	return false
}

func TestAssignSourcesAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const trials = 300
	infeasible := 0
	for trial := 0; trial < trials; trial++ {
		l := 1 + rng.Intn(8)
		inst, selected := randomAssignInstance(rng, 1+rng.Intn(12), l, 1+rng.Intn(l), 8)
		if checkSourcesAgree(t, inst, selected, Options{Exhaustive: trial%2 == 1}) {
			infeasible++
		}
	}
	if infeasible == 0 || infeasible == trials {
		t.Fatalf("%d of %d draws infeasible: the cross-check missed a path", infeasible, trials)
	}
	t.Logf("%d of %d draws infeasible", infeasible, trials)
}

// FuzzAssignToSelection cross-checks the k-source candidate lists
// against the lazy per-customer searchers on random undirected
// instances, including customers that cannot reach any selected
// facility: same objective, valid solutions, or the same ErrInfeasible.
func FuzzAssignToSelection(f *testing.F) {
	f.Add(int64(1), int64(5), int64(4), int64(2), int64(2))
	f.Add(int64(7), int64(12), int64(8), int64(3), int64(1))
	f.Add(int64(-3), int64(1), int64(1), int64(1), int64(1))
	f.Add(int64(99), int64(9), int64(6), int64(6), int64(3))
	f.Fuzz(func(t *testing.T, seed, mRaw, lRaw, kRaw, capRaw int64) {
		mod := func(raw, n int64) int {
			v := raw % n
			if v < 0 {
				v += n
			}
			return int(v)
		}
		m := 1 + mod(mRaw, 12)
		l := 1 + mod(lRaw, 8)
		k := 1 + mod(kRaw, int64(l))
		inst, selected := randomAssignInstance(rand.New(rand.NewSource(seed)), m, l, k, 1+mod(capRaw, 4))
		checkSourcesAgree(t, inst, selected, Options{})
	})
}

// cancelAfterCtx reports cancellation from its (n+1)-th Err call on, so
// a test can cancel at a chosen checkpoint of a run.
type cancelAfterCtx struct {
	context.Context
	n int
}

func (c *cancelAfterCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestAssignKSourceCancelledDuringSearches cancels inside the k
// facility-side searches — at the check before a search and at a poll
// within one — on an instance whose assignment would otherwise fail as
// infeasible. The result must be nil and the context error, never
// ErrInfeasible.
func TestAssignKSourceCancelledDuringSearches(t *testing.T) {
	const n = 3 * 4096
	b := graph.NewBuilder(n+1, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inst := &data.Instance{
		G:          g,
		Customers:  []int32{n - 1, n - 2, n}, // node n is isolated
		Facilities: []data.Facility{{Node: 0, Capacity: 2}, {Node: 1, Capacity: 2}, {Node: 2, Capacity: 2}},
		K:          3,
	}
	if _, err := assignToSelection(context.Background(), inst, []int{0, 1, 2}, Options{}, true); !errors.Is(err, data.ErrInfeasible) {
		t.Fatalf("uncancelled run: err = %v, want ErrInfeasible", err)
	}
	// Err call 1 is the check before the first search; the later ones
	// are that search's polls every 4096 pops (it explores the whole
	// path, because the isolated customer is never settled).
	for _, after := range []int{0, 1, 2} {
		ctx := &cancelAfterCtx{Context: context.Background(), n: after}
		sol, err := assignToSelection(ctx, inst, []int{0, 1, 2}, Options{}, true)
		if sol != nil || !errors.Is(err, context.Canceled) || errors.Is(err, data.ErrInfeasible) {
			t.Fatalf("cancel after %d checks: sol=%v err=%v, want nil and context.Canceled", after, sol, err)
		}
	}
}

// TestAssignKSourceConcurrentPool runs k-source assignments on two
// graphs from several goroutines at once, so pooled buffers move between
// goroutines and graphs; every call must reproduce its serial objective.
// Run under -race.
func TestAssignKSourceConcurrentPool(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type job struct {
		inst     *data.Instance
		selected []int
		want     int64
	}
	var jobs []job
	for len(jobs) < 2 {
		inst, selected := randomAssignInstance(rng, 12, 6, 3, 8)
		sol, err := assignToSelection(context.Background(), inst, selected, Options{}, true)
		if err != nil {
			continue // infeasible draw
		}
		jobs = append(jobs, job{inst, selected, sol.Objective})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				jb := jobs[(w+r)%len(jobs)]
				sol, err := assignToSelection(context.Background(), jb.inst, jb.selected, Options{}, true)
				if err != nil || sol.Objective != jb.want {
					t.Errorf("worker %d round %d: objective %v err %v, want %d", w, r, sol, err, jb.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
