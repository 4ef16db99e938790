package bipartite

import (
	"math/rand"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/graph"
)

// candidateLists turns a customer×facility distance table into the
// candidate lists of NewFromLists: every reachable facility, shuffled
// (the matcher orders them itself).
func candidateLists(rng *rand.Rand, dist [][]int64) [][]Candidate {
	lists := make([][]Candidate, len(dist))
	for i, row := range dist {
		for j, d := range row {
			if d < graph.Inf {
				lists[i] = append(lists[i], Candidate{Fac: int32(j), W: d})
			}
		}
		rng.Shuffle(len(lists[i]), func(a, b int) { lists[i][a], lists[i][b] = lists[i][b], lists[i][a] })
	}
	return lists
}

// fuzzMod reduces a raw fuzz integer into [0, m) without overflowing on
// MinInt64 (whose negation is itself).
func fuzzMod(raw, m int64) int64 {
	v := raw % m
	if v < 0 {
		v += m
	}
	return v
}

// FuzzMatcher cross-checks the full SSPA engine — lazy edge
// materialization, potentials, Theorem-1 pruning, augmentation — against
// refMinCost, the dense successive-shortest-paths reference with no
// optimizations. For any interleaving of FindPair calls the engine's
// matching must cost exactly the reference optimum for the demand vector
// it achieved, and a failed FindPair must mean the reference cannot
// place another unit for that customer either. A list-fed matcher
// (NewFromLists) over the same distances must make the same FindPair
// decisions and reach the same cost.
func FuzzMatcher(f *testing.F) {
	f.Add(int64(1), int64(3), int64(3), int64(2), int64(2))
	f.Add(int64(42), int64(1), int64(6), int64(1), int64(3))
	f.Add(int64(7), int64(6), int64(2), int64(3), int64(1))
	f.Add(int64(-99), int64(4), int64(4), int64(2), int64(2))
	f.Add(int64(123456789), int64(5), int64(5), int64(1), int64(3))
	f.Fuzz(func(t *testing.T, seed, mRaw, lRaw, capRaw, roundsRaw int64) {
		m := 1 + int(fuzzMod(mRaw, 6))
		l := 1 + int(fuzzMod(lRaw, 6))
		maxCap := 1 + int(fuzzMod(capRaw, 3))
		rounds := 1 + int(fuzzMod(roundsRaw, 3))

		rng := rand.New(rand.NewSource(seed))
		n := m + l + 4 + rng.Intn(28)
		g := randomNetwork(rng, n)
		perm := rng.Perm(n)
		custNodes := make([]int32, m)
		for i := range custNodes {
			custNodes[i] = int32(perm[i])
		}
		facs := make([]data.Facility, l)
		caps := make([]int, l)
		for j := range facs {
			caps[j] = 1 + rng.Intn(maxCap)
			facs[j] = data.Facility{Node: int32(perm[m+j]), Capacity: caps[j]}
		}

		mt := New(g, custNodes, facs)
		demands := make([]int, m)
		lastFailed := -1
		var outcomes []bool
		for r := 0; r < rounds; r++ {
			for i := 0; i < m; i++ {
				ok := mt.FindPair(i)
				outcomes = append(outcomes, ok)
				if ok {
					demands[i]++
				} else {
					lastFailed = i
				}
			}
		}
		checkInvariants(t, mt)

		dist := denseDistances(g, custNodes, facs)
		lt := NewFromLists(custNodes, facs, candidateLists(rng, dist))
		for call, want := range outcomes {
			if got := lt.FindPair(call % m); got != want {
				t.Fatalf("list-fed FindPair(%d) = %v on call %d, searcher-fed %v (seed %d)", call%m, got, call, want, seed)
			}
		}
		checkInvariants(t, lt)
		if got, want := lt.TotalMatchedCost(), mt.TotalMatchedCost(); got != want {
			t.Fatalf("list-fed cost %d != searcher-fed cost %d (seed %d)", got, want, seed)
		}
		want, ok := refMinCost(dist, caps, demands)
		if !ok {
			t.Fatalf("reference cannot satisfy demands %v the engine matched (caps %v, seed %d)",
				demands, caps, seed)
		}
		if got := mt.TotalMatchedCost(); got != want {
			t.Fatalf("SSPA cost %d != reference optimum %d (m=%d l=%d caps=%v demands=%v seed=%d)",
				got, want, m, l, caps, demands, seed)
		}
		// Completeness: a failure means no augmenting path existed then;
		// infeasibility is monotone in the demand vector, so it must still
		// be infeasible with the final (larger) demands.
		if lastFailed >= 0 {
			bumped := append([]int(nil), demands...)
			bumped[lastFailed]++
			if _, ok := refMinCost(dist, caps, bumped); ok {
				t.Fatalf("FindPair(%d) failed but the reference matches another unit (caps %v demands %v seed %d)",
					lastFailed, caps, demands, seed)
			}
		}
	})
}
