// Perf suite: the hot-path benchmarks behind scripts/bench.sh and the
// committed BENCH_*.json trajectory (DESIGN.md §11).
//
// Unlike the experiment runners (which reproduce the paper's figures),
// the perf suite exists to make "faster" a checkable claim over time: it
// measures the SSPA inner loop — resumable Dijkstra, the reduced-cost
// FindPair search — and the assignment primitive AssignToSelection, plus
// the end-to-end WMA solve on the city presets,
// and emits a schema-versioned JSON file that ComparePerf can diff
// against any earlier run. The bench package is the one layer allowed to
// read the wall clock (the mcfslint determinism rule), which is why the
// suite lives here and cmd/mcfsperf stays a thin shell.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mcfs"
	"mcfs/internal/bipartite"
	"mcfs/internal/graph"
	"mcfs/internal/obs"
)

// PerfSchema identifies the BENCH_*.json layout. Bump it only for
// incompatible changes; ComparePerf refuses to diff across schemas.
// Version 2 added the optional per-benchmark work counters; v1 files
// are still readable (the addition is forward-compatible) so the
// committed baseline trajectory stays diffable.
const PerfSchema = "mcfs-bench/2"

// perfSchemaV1 is the pre-counter layout, accepted on read.
const perfSchemaV1 = "mcfs-bench/1"

// PerfConfig tunes a perf-suite run.
type PerfConfig struct {
	// Cities selects the presets to measure; nil means aalborg and
	// copenhagen (quick mode: aalborg only).
	Cities []string
	// Quick shrinks the instances for a CI smoke run. Quick numbers are
	// comparable only to other quick numbers; the file records the mode.
	Quick bool
	// Seed drives instance generation (same default as Config.Seed).
	Seed int64
}

// PerfBenchmark is one measured benchmark in a BENCH_*.json file.
// Counters (schema v2+) come from a separate single probe run with an
// obs recorder attached — never from the timed iterations, which run
// recorder-free so ns/op keeps measuring the undisturbed hot path.
type PerfBenchmark struct {
	Name        string           `json:"name"`
	Iterations  int              `json:"n"`
	NsPerOp     float64          `json:"ns_per_op"`
	BytesPerOp  int64            `json:"bytes_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// PerfFile is the schema-versioned payload of a BENCH_*.json file.
type PerfFile struct {
	Schema     string          `json:"schema"`
	Created    string          `json:"created"` // RFC3339 UTC
	GoVersion  string          `json:"go"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	Quick      bool            `json:"quick"`
	Seed       int64           `json:"seed"`
	Cities     []string        `json:"cities"`
	Benchmarks []PerfBenchmark `json:"benchmarks"`
}

// PerfStamp returns a UTC timestamp suitable for BENCH_<stamp>.json
// filenames.
func PerfStamp() string { return time.Now().UTC().Format("20060102T150405Z") }

// perfCase is one registered benchmark body. probe, when set, runs the
// operation once against a recorder-carrying context to collect the
// work counters for the row; it is nil for operations with no
// context-taking variant.
type perfCase struct {
	name  string
	fn    func(b *testing.B)
	probe func(ctx context.Context) error
}

// RunPerf executes the suite and returns the populated file. Progress
// lines go through logf (pass nil to silence them).
func RunPerf(cfg PerfConfig, logf func(format string, args ...any)) (*PerfFile, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cities := cfg.Cities
	if len(cities) == 0 {
		if cfg.Quick {
			cities = []string{"aalborg"}
		} else {
			cities = []string{"aalborg", "copenhagen"}
		}
	}
	out := &PerfFile{
		Schema:    PerfSchema,
		Created:   time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quick:     cfg.Quick,
		Seed:      cfg.Seed,
		Cities:    cities,
	}
	for _, city := range cities {
		cases, err := cityPerfCases(city, cfg)
		if err != nil {
			return nil, err
		}
		for _, c := range cases {
			logf("bench: %s", c.name)
			r := testing.Benchmark(c.fn)
			pb := PerfBenchmark{
				Name:        c.name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if c.probe != nil {
				rec := obs.New()
				if err := c.probe(obs.WithRecorder(context.Background(), rec)); err != nil {
					return nil, fmt.Errorf("bench: counter probe for %s: %w", c.name, err)
				}
				pb.Counters = nonzeroCounters(rec)
			}
			out.Benchmarks = append(out.Benchmarks, pb)
			logf("bench: %s\t%d\t%.0f ns/op\t%d B/op\t%d allocs/op",
				c.name, r.N, out.Benchmarks[len(out.Benchmarks)-1].NsPerOp,
				r.AllocedBytesPerOp(), r.AllocsPerOp())
		}
	}
	return out, nil
}

// cityPerfCases builds the per-city benchmark bodies over one shared
// instance (read-only across cases, like the parallel harness audits).
func cityPerfCases(city string, cfg PerfConfig) ([]perfCase, error) {
	bcfg := Config{Scale: 1, Seed: cfg.Seed}
	m, k, c := 512, 51, 20
	if cfg.Quick {
		bcfg.Scale = 0.2
		m, k = 128, 13
	}
	inst, err := cityInstance(city, bcfg.normalized(), m, k, c)
	if err != nil {
		return nil, fmt.Errorf("bench: perf instance for %s: %w", city, err)
	}
	g := inst.G
	name := func(op string) string { return op + "/" + city }

	// Multi-source set: up to 32 facility nodes spread over the candidate
	// list; NN/Within sources rotate over the customers.
	var sources []int32
	if l := len(inst.Facilities); l > 0 {
		stride := l / 32
		if stride < 1 {
			stride = 1
		}
		for j := 0; j < l && len(sources) < 32; j += stride {
			sources = append(sources, inst.Facilities[j].Node)
		}
	}
	radius := int64(g.AvgEdgeWeight() * 64)
	if radius < 1 {
		radius = 1
	}
	mask, _ := inst.CandidateMask()
	// The AssignToSelection row re-assigns to WMA's own selection, the
	// final phase of the WMA row measured on its own.
	wmaSol, _, err := mcfs.AlgorithmWMA.Solve(context.Background(), inst, mcfs.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("bench: perf selection for %s: %w", city, err)
	}
	selected := wmaSol.Selected

	cases := []perfCase{
		{name("Dijkstra"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Dijkstra(inst.Customers[i%len(inst.Customers)])
			}
		}, func(ctx context.Context) error {
			_, err := g.DijkstraCtx(ctx, inst.Customers[0])
			return err
		}},
		{name("MultiSourceDijkstra"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.MultiSourceDijkstraCtx(context.Background(), sources); err != nil {
					b.Fatal(err)
				}
			}
		}, func(ctx context.Context) error {
			_, _, err := g.MultiSourceDijkstraCtx(ctx, sources)
			return err
		}},
		// One scratch reused across searches, as the BRNN attraction loop
		// does.
		{name("DijkstraWithin"), func(b *testing.B) {
			sc := g.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.DijkstraWithinScratchCtx(context.Background(), inst.Customers[i%len(inst.Customers)], radius, sc); err != nil {
					b.Fatal(err)
				}
			}
		}, func(ctx context.Context) error {
			return g.DijkstraWithinScratchCtx(ctx, inst.Customers[0], radius, g.NewScratch())
		}},
		// NNSearcher has no context-taking variant: its incremental pulls
		// are driven by the caller, so there is no probe (and no counters).
		{name("NNSearcher"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := graph.NewNNSearcher(g, inst.Customers[i%len(inst.Customers)], mask)
				for drained := 0; drained < 32; drained++ {
					if _, _, ok := s.Next(); !ok {
						break
					}
				}
			}
		}, nil},
		{name("FindPair"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mt := bipartite.New(g, inst.Customers, inst.Facilities)
				for cust := range inst.Customers {
					if !mt.FindPair(cust) {
						b.Fatalf("FindPair(%d) found no augmenting path", cust)
					}
				}
			}
		}, func(ctx context.Context) error {
			mt := bipartite.New(g, inst.Customers, inst.Facilities)
			for cust := range inst.Customers {
				ok, err := mt.FindPairCtx(ctx, cust)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("FindPair(%d) found no augmenting path", cust)
				}
			}
			return nil
		}},
		{name("AssignToSelection"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mcfs.AssignToSelection(inst, selected); err != nil {
					b.Fatalf("AssignToSelection: %v", err)
				}
			}
		}, func(ctx context.Context) error {
			_, err := mcfs.AssignToSelectionCtx(ctx, inst, selected)
			return err
		}},
		{name("WMA"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := mcfs.AlgorithmWMA.Solve(context.Background(), inst, mcfs.WithSeed(cfg.Seed)); err != nil {
					b.Fatalf("WMA solve: %v", err)
				}
			}
		}, func(ctx context.Context) error {
			_, _, err := mcfs.AlgorithmWMA.Solve(ctx, inst, mcfs.WithSeed(cfg.Seed))
			return err
		}},
	}
	return cases, nil
}

// WritePerfFile marshals the file (stable indented JSON) to path.
func WritePerfFile(f *PerfFile, path string) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadPerfFile loads and schema-checks a BENCH_*.json file.
func ReadPerfFile(path string) (*PerfFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f PerfFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.Schema != PerfSchema && f.Schema != perfSchemaV1 {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q (or the older %q)",
			path, f.Schema, PerfSchema, perfSchemaV1)
	}
	return &f, nil
}

// PerfDelta is one benchmark's old-vs-new comparison.
type PerfDelta struct {
	Name       string
	OldNs      float64
	NewNs      float64
	Ratio      float64 // new/old wall time; > 1 is slower
	OldAllocs  int64
	NewAllocs  int64
	Regression bool
}

// ComparePerf diffs two perf files over their shared benchmark names. A
// benchmark regresses when its ns/op grew by more than threshold (e.g.
// 1.15 = +15%); missing-on-either-side names are skipped (the suite may
// gain benchmarks between PRs). Comparing quick and non-quick files is
// an error — the instance sizes differ.
func ComparePerf(old, new *PerfFile, threshold float64) ([]PerfDelta, error) {
	if threshold <= 1 {
		return nil, fmt.Errorf("bench: compare threshold %v must exceed 1", threshold)
	}
	if old.Quick != new.Quick {
		return nil, fmt.Errorf("bench: cannot compare quick=%v against quick=%v files", old.Quick, new.Quick)
	}
	prev := make(map[string]PerfBenchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		prev[b.Name] = b
	}
	var deltas []PerfDelta
	for _, b := range new.Benchmarks {
		p, ok := prev[b.Name]
		if !ok || p.NsPerOp <= 0 {
			continue
		}
		ratio := b.NsPerOp / p.NsPerOp
		deltas = append(deltas, PerfDelta{
			Name:       b.Name,
			OldNs:      p.NsPerOp,
			NewNs:      b.NsPerOp,
			Ratio:      ratio,
			OldAllocs:  p.AllocsPerOp,
			NewAllocs:  b.AllocsPerOp,
			Regression: ratio > threshold,
		})
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas, nil
}

// FormatPerfDeltas renders a comparison as an aligned text table and
// reports the number of regressions.
func FormatPerfDeltas(deltas []PerfDelta) (string, int) {
	var sb strings.Builder
	regressions := 0
	fmt.Fprintf(&sb, "%-36s %14s %14s %8s %16s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs old→new")
	for _, d := range deltas {
		mark := ""
		if d.Regression {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(&sb, "%-36s %14.0f %14.0f %+7.1f%% %10d→%-6d%s\n",
			d.Name, d.OldNs, d.NewNs, (d.Ratio-1)*100, d.OldAllocs, d.NewAllocs, mark)
	}
	return sb.String(), regressions
}
