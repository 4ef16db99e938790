package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"mcfs"
	"mcfs/internal/obs"
)

// setupRepeats is how many times a run builds its inputs; setup_s is
// the median, which keeps one slow repetition from moving it.
const setupRepeats = 5

// timedSetup runs build setupRepeats times (once in short mode) and
// returns the last result with the median duration.
func timedSetup[T any](cfg config, build func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	n := setupRepeats
	if cfg.short {
		n = 1
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// load is the set-up path a user of the command-line tools pays: the
// generated instance is written in the module's text format, read back,
// and checked to be valid and feasible before any solve.
func load(dir string, gen func() (*mcfs.Instance, error)) (*mcfs.Instance, error) {
	inst, err := gen()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "inst.mcfs")
	if err := writeInstance(path, inst); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	inst, err = mcfs.ReadInstance(f)
	if err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if ok, _ := inst.Feasible(); !ok {
		return nil, fmt.Errorf("generated instance is infeasible")
	}
	return inst, nil
}

// cityInstance is one wma-city input: the ROADMAP's Copenhagen
// instance (mcfsgen -type city -city copenhagen -m 2000 -l 400 -k 60
// -cap 50 -seed seed). The road network is the seed-1 network for every
// seed; the seed draws the customer and candidate sample, so seed 1 is
// exactly the ROADMAP instance.
func cityInstance(seed int64) (*mcfs.Instance, error) {
	p, err := mcfs.CityPreset("copenhagen", 0.1, 1)
	if err != nil {
		return nil, err
	}
	g, err := mcfs.GenerateCity(p)
	if err != nil {
		return nil, err
	}
	return sample(g, seed, 2000, 400, 60, 50), nil
}

// aalborgInstance is one exact-small input, identical to
// mcfsgen -type city -city aalborg -scale 0.05 -m 30 -l 14 -k 4 -cap 12
// -seed seed.
func aalborgInstance(seed int64) (*mcfs.Instance, error) {
	p, err := mcfs.CityPreset("aalborg", 0.05, seed)
	if err != nil {
		return nil, err
	}
	g, err := mcfs.GenerateCity(p)
	if err != nil {
		return nil, err
	}
	return sample(g, seed, 30, 14, 4, 12), nil
}

// sample draws candidates, then customers, from the largest component
// in mcfsgen's order, so the instance is feasible by construction.
func sample(g *mcfs.Graph, seed int64, m, l, k, capacity int) *mcfs.Instance {
	rng := rand.New(rand.NewSource(seed))
	pool := mcfs.LargestComponent(g)
	facs := mcfs.SampleFacilitiesFrom(pool, l, rng, mcfs.UniformCapacity(capacity))
	return &mcfs.Instance{
		G:          g,
		Customers:  mcfs.SampleCustomersFrom(pool, m, rng),
		Facilities: facs,
		K:          k,
	}
}

// checkSolution is the output check every solve passes: a valid,
// capacity-respecting solution whose objective matches the reference.
func checkSolution(inst *mcfs.Instance, sol *mcfs.Solution, ref int64) error {
	obj, err := inst.CheckSolution(sol)
	if err != nil {
		return err
	}
	if obj != ref {
		return fmt.Errorf("objective %d, reference %d", obj, ref)
	}
	return nil
}

func tracedCtx(on bool) (context.Context, *obs.Recorder) {
	if !on {
		return context.Background(), nil
	}
	rec := obs.New()
	return obs.WithRecorder(context.Background(), rec), rec
}

// suite is a batch workload: a fixed set of instances, each solved
// repeatedly in one process.
type suite struct {
	name  string
	seeds []int64 // instance seeds
	gen   func(seed int64) (*mcfs.Instance, error)
	refs  map[int64]int64 // reference objective by instance seed
	// solve returns the solution and the number of B&B nodes (0 for a
	// heuristic), or an error when the result fails a solver-specific
	// check.
	solve func(ctx context.Context, inst *mcfs.Instance) (*mcfs.Solution, int, error)
	// probes lists the selections the per-layer probes run on.
	probes func(ctx context.Context, inst *mcfs.Instance, sol *mcfs.Solution) ([]*mcfs.Solution, error)
}

var wmaCity = suite{
	name:  "wma-city",
	seeds: []int64{1, 2, 3},
	gen:   cityInstance,
	refs:  cityRefs,
	solve: func(ctx context.Context, inst *mcfs.Instance) (*mcfs.Solution, int, error) {
		sol, err := mcfs.SolveCtx(ctx, inst)
		return sol, 0, err
	},
	probes: func(_ context.Context, _ *mcfs.Instance, sol *mcfs.Solution) ([]*mcfs.Solution, error) {
		return []*mcfs.Solution{sol}, nil
	},
}

var exactSmall = suite{
	name:  "exact-small",
	seeds: []int64{1, 2, 3},
	gen:   aalborgInstance,
	refs:  exactRefs,
	solve: func(ctx context.Context, inst *mcfs.Instance) (*mcfs.Solution, int, error) {
		res, err := mcfs.SolveExactCtx(ctx, inst)
		if err != nil {
			return nil, 0, err
		}
		if !res.Optimal {
			return nil, 0, fmt.Errorf("optimality not proven")
		}
		return res.Solution, res.Nodes, nil
	},
	// The two selection shapes B&B alternates between: the dense root
	// relaxation (every candidate open) and the sparse optimum.
	probes: func(ctx context.Context, inst *mcfs.Instance, sol *mcfs.Solution) ([]*mcfs.Solution, error) {
		all := make([]int, inst.L())
		for j := range all {
			all[j] = j
		}
		root, err := mcfs.AssignToSelectionCtx(ctx, inst, all)
		if err != nil {
			return nil, err
		}
		return []*mcfs.Solution{{Selected: all, Assignment: root.Assignment, Objective: root.Objective}, sol}, nil
	},
}

func runWMACity(cfg config) (*report, error)    { return runSuite(cfg, wmaCity) }
func runExactSmall(cfg config) (*report, error) { return runSuite(cfg, exactSmall) }

// runSuite solves the suite in rounds, each round solving every
// instance once in a seed-shuffled order, so every instance gets the
// same number of samples. In a traced run every other round is traced,
// so the tracing overhead is measured against untraced rounds of the
// same run.
func runSuite(cfg config, s suite) (*report, error) {
	seeds := s.seeds
	if cfg.holdout {
		seeds = heldOutSeeds[s.name]
	}
	rep := newReport()
	dir, err := os.MkdirTemp(cfg.workDir, s.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	insts, setup, err := timedSetup(cfg, func() ([]*mcfs.Instance, error) {
		out := make([]*mcfs.Instance, len(seeds))
		for i, seed := range seeds {
			inst, err := load(dir, func() (*mcfs.Instance, error) { return s.gen(seed) })
			if err != nil {
				return nil, err
			}
			out[i] = inst
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	for _, seed := range seeds {
		if _, ok := s.refs[seed]; !ok {
			return nil, fmt.Errorf("%s: no reference objective recorded for instance seed %d", s.name, seed)
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	var plainRounds, tracedRounds []float64
	solves := make([][]float64, len(seeds)) // untraced solve times per instance
	sols := make([]*mcfs.Solution, len(seeds))
	nodes := 0
	var st spanTotals
	ct := counterTotals{}
	begin := time.Now()
	for round := 0; ; round++ {
		tracedRound := cfg.trace && round%2 == 1
		roundTime := 0.0
		for _, i := range rng.Perm(len(seeds)) {
			ctx, rec := tracedCtx(tracedRound)
			start := time.Now()
			sol, n, err := s.solve(ctx, insts[i])
			d := time.Since(start).Seconds()
			roundTime += d
			if err == nil {
				err = checkSolution(insts[i], sol, s.refs[seeds[i]])
			}
			if err != nil {
				rep.op(fmt.Errorf("%s instance seed %d: %w", s.name, seeds[i], err))
				continue
			}
			rep.op(nil)
			sols[i] = sol
			if rec == nil {
				solves[i] = append(solves[i], d)
				if round == 0 {
					nodes += n
				}
			} else if len(tracedRounds) == 0 {
				st.add(rec)
				ct.add(rec)
			}
		}
		if tracedRound {
			tracedRounds = append(tracedRounds, roundTime)
		} else {
			plainRounds = append(plainRounds, roundTime)
		}
		// Start another round only if it is expected to end in time.
		next := time.Duration(roundTime * float64(time.Second))
		enough := !cfg.trace || len(tracedRounds) > 0
		if enough && (cfg.short || time.Since(begin)+next/2 >= cfg.seconds) {
			break
		}
	}
	if rep.failed > 0 {
		return rep, nil
	}

	// Each instance is timed by its median solve, so one slow round
	// moves no instance's time.
	medians := make([]float64, len(seeds))
	var objective int64
	for i, ts := range solves {
		medians[i] = median(ts)
		objective += sols[i].Objective
	}
	mean := sum(medians) / float64(len(seeds))
	rep.note("%s: %d untraced rounds of %d instances (seeds %v), median solve per instance %v s, %d B&B nodes per round",
		s.name, len(plainRounds), len(seeds), seeds, medians, nodes)
	rep.e2e["latency_p50_ms"] = 1000 * mean
	rep.e2e["latency_tail_ms"] = 1000 * quantile(medians, 1)
	rep.e2e["rate_per_s"] = 1 / mean // one solve at a time
	rep.e2e["objective"] = float64(objective)
	if cfg.trace {
		emitTrace(rep, st, ct)
		rep.layer["trace.overhead_ratio"] = median(tracedRounds) / median(plainRounds)
		if nodes > 0 {
			rep.layer["solver.ms_per_node"] = 1000 * plainRounds[0] / float64(nodes)
		}
		var p probes
		ctx := context.Background()
		for i, inst := range insts {
			sels, err := s.probes(ctx, inst, sols[i])
			rep.op(err)
			for _, sel := range sels {
				p.run(ctx, inst, sel, rep)
			}
		}
		p.emit(rep)
	}
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	rep.e2e["peak_rss_mb"] = rss
	return rep, nil
}
