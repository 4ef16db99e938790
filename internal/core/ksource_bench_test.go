package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mcfs/internal/data"
	"mcfs/internal/gen"
	"mcfs/internal/graph"
)

// BenchmarkAssignSourceCrossover is the (m, k) sweep behind the routing
// constant kSourceRatio (DESIGN.md §11). Each point draws m customers
// and ℓ = 5k candidates with capacity 1.5× the average load, and times
// both candidate sources on two selections of k facilities: WMA's own
// (facilities near the customers, as the WMA, Hilbert and BRNN final
// phases see them) and a random one (as branch-and-bound and local
// search also evaluate). It sweeps a grid of k²/m ratios on two graph
// families: a Copenhagen-preset road network of ~7.3k nodes (average
// degree ~2.3, the city workloads) and the n=2000, α=2.5 synthetic
// network of the mcfsd serving instance (average degree ~20). Run it
// with
//
//	go test -run '^$' -bench AssignSourceCrossover -benchtime 10x ./internal/core
//
// and compare the lazy/ksource pair of each family/m/k/selection point.
func BenchmarkAssignSourceCrossover(b *testing.B) {
	p, err := gen.CityPreset("copenhagen", 0.026, 1)
	if err != nil {
		b.Fatal(err)
	}
	road, err := gen.City(p)
	if err != nil {
		b.Fatal(err)
	}
	dense, err := gen.Synthetic(gen.SyntheticConfig{N: 2000, Alpha: 2.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, fam := range []struct {
		name string
		g    *graph.Graph
		ms   []int
	}{
		{"road", road, []int{200, 500, 1000, 2000}},
		{"dense", dense, []int{200, 400}},
	} {
		pool := gen.LargestComponent(fam.g)
		for _, m := range fam.ms {
			for _, ratio := range []float64{1, 2, 4, 5, 6.5, 8, 12, 20} {
				k := int(math.Sqrt(ratio * float64(m))) // k²/m ≤ ratio
				rng := rand.New(rand.NewSource(int64(m*1000 + k)))
				capacity := (3*m + 2*k - 1) / (2 * k)
				inst := &data.Instance{
					G:          fam.g,
					Customers:  gen.SampleCustomersFrom(pool, m, rng),
					Facilities: gen.SampleFacilitiesFrom(pool, 5*k, rng, gen.UniformCapacity(capacity)),
					K:          k,
				}
				sol, err := Solve(inst, Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, sel := range []struct {
					name     string
					selected []int
				}{{"wma", sol.Selected}, {"random", rng.Perm(5 * k)[:k]}} {
					for _, src := range []struct {
						name    string
						kSource bool
					}{{"lazy", false}, {"ksource", true}} {
						b.Run(fmt.Sprintf("%s/m=%d/k=%d/%s/%s", fam.name, m, k, sel.name, src.name), func(b *testing.B) {
							b.ReportAllocs()
							for i := 0; i < b.N; i++ {
								if _, err := assignToSelection(context.Background(), inst, sel.selected, Options{}, src.kSource); err != nil {
									b.Fatal(err)
								}
							}
						})
					}
				}
			}
		}
	}
}
