package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mcfs"
	"mcfs/internal/bipartite"
	"mcfs/internal/core"
	"mcfs/internal/graph"
	"mcfs/internal/obs"
)

// probes accumulates the per-layer probes the benchmark runs itself,
// from outside the solver, on the selections a workload produced. Each
// probe calls one layer's public functions and times them.
type probes struct {
	nnDrain   time.Duration
	nnSettled int64
	nnAlloc   uint64
	ksource   time.Duration
	bipNew    time.Duration
	findPair  []float64 // µs per FindPairCtx call
	assign    time.Duration
}

// run probes every layer on one solution. The customers' assigned
// facilities must lie in sol.Selected.
func (p *probes) run(ctx context.Context, inst *mcfs.Instance, sol *mcfs.Solution, rep *report) {
	mask := make([]bool, inst.G.N())
	for _, j := range sol.Selected {
		mask[inst.Facilities[j].Node] = true
	}

	// graph: one fresh NNSearcher per customer, drained until it yields
	// the customer's assigned facility.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var drainErr error
	for i, c := range inst.Customers {
		target := inst.Facilities[sol.Assignment[i]].Node
		s := graph.NewNNSearcher(inst.G, c, mask)
		for {
			node, _, ok := s.Next()
			if !ok {
				drainErr = fmt.Errorf("nn probe: customer %d never reached facility node %d", i, target)
				break
			}
			if node == target {
				break
			}
		}
		p.nnSettled += int64(s.Settled())
	}
	p.nnDrain += time.Since(start)
	runtime.ReadMemStats(&after)
	p.nnAlloc += after.TotalAlloc - before.TotalAlloc
	rep.op(drainErr)

	// graph: the k-source floor, one full Dijkstra per selected node.
	start = time.Now()
	for _, j := range sol.Selected {
		inst.G.Dijkstra(inst.Facilities[j].Node)
	}
	p.ksource += time.Since(start)

	// bipartite: a matcher over the selected subset, one timed FindPair
	// per customer in index order (the order AssignToSelection uses).
	subset := make([]mcfs.Facility, len(sol.Selected))
	for idx, j := range sol.Selected {
		subset[idx] = inst.Facilities[j]
	}
	start = time.Now()
	mt := bipartite.New(inst.G, inst.Customers, subset)
	p.bipNew += time.Since(start)
	var pairErr error
	for i := range inst.Customers {
		t := time.Now()
		ok, err := mt.FindPairCtx(ctx, i)
		p.findPair = append(p.findPair, us(time.Since(t)))
		if err == nil && !ok {
			err = fmt.Errorf("customer %d unmatched", i)
		}
		if err != nil && pairErr == nil {
			pairErr = fmt.Errorf("findpair probe: %w", err)
		}
	}
	if pairErr == nil && mt.TotalMatchedCost() != sol.Objective {
		pairErr = fmt.Errorf("findpair probe: matched cost %d, solution objective %d", mt.TotalMatchedCost(), sol.Objective)
	}
	rep.op(pairErr)

	// core: the assignment primitive on the same selection; its optimum is
	// unique, so it must reproduce the solution's objective.
	start = time.Now()
	asg, err := core.AssignToSelectionCtx(ctx, inst, sol.Selected, core.Options{})
	p.assign += time.Since(start)
	if err == nil && asg.Objective != sol.Objective {
		err = fmt.Errorf("assign probe: objective %d, solution objective %d", asg.Objective, sol.Objective)
	}
	rep.op(err)
}

func (p *probes) emit(rep *report) {
	rep.layer["graph.nn_drain_ms"] = ms(p.nnDrain)
	rep.layer["graph.nn_settled"] = float64(p.nnSettled)
	if p.nnSettled > 0 {
		rep.layer["graph.nn_ns_per_settle"] = float64(p.nnDrain.Nanoseconds()) / float64(p.nnSettled)
	}
	rep.layer["graph.nn_alloc_mb"] = float64(p.nnAlloc) / (1 << 20)
	rep.layer["graph.ksource_ms"] = ms(p.ksource)
	rep.layer["bipartite.new_us"] = us(p.bipNew)
	rep.layer["bipartite.findpair_us_p50"] = median(p.findPair)
	rep.layer["bipartite.findpair_us_max"] = quantile(p.findPair, 1)
	rep.layer["core.assign_ms"] = ms(p.assign)
}

// traceCap is obs's span cap: a Recorder stops opening spans once its
// tree holds this many, and only counters keep accumulating.
const traceCap = 4096

// spanTotals sums the self time (elapsed minus the children's elapsed)
// of every span by name over one or more recorded trees.
type spanTotals struct {
	spans     int
	truncated bool
	self      map[string]time.Duration
	root      time.Duration // elapsed of the root spans
}

func (t *spanTotals) add(rec *obs.Recorder) {
	if t.self == nil {
		t.self = map[string]time.Duration{}
	}
	n := 0
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		n++
		self := s.Elapsed
		for _, c := range s.Children {
			self -= c.Elapsed
			walk(c)
		}
		t.self[s.Name] += self
	}
	for _, s := range rec.Spans() {
		t.root += s.Elapsed
		walk(s)
	}
	t.spans += n
	if n >= traceCap {
		t.truncated = true
	}
}

// counterTotals sums recorder counters over several recorders.
type counterTotals map[obs.Counter]int64

func (c counterTotals) add(rec *obs.Recorder) {
	for _, k := range obs.Counters() {
		c[k] += rec.Counter(k)
	}
}

// emitTrace reports the span- and counter-derived per-layer metrics.
// Counts always come from the recorders' counters, which keep counting
// past the span cap; span self times are flagged by trace.truncated
// when the cap cut the tree short.
func emitTrace(rep *report, st spanTotals, ct counterTotals) {
	rep.layer["trace.spans"] = float64(st.spans)
	if st.truncated {
		rep.layer["trace.truncated"] = 1
		rep.note("trace reached the %d-span cap: span self times are incomplete, counts come from root counters", traceCap)
	}
	rep.layer["core.match_self_ms"] = ms(st.self["wma/match"])
	rep.layer["core.cover_self_ms"] = ms(st.self["wma/cover"])
	rep.layer["core.assign_self_ms"] = ms(st.self["wma/assign"])
	if st.root > 0 {
		rep.layer["core.assign_share"] = float64(st.self["wma/assign"]) / float64(st.root)
	}
	rep.layer["core.wma_iterations"] = float64(ct[obs.WMAIterations])
	rep.layer["bipartite.nodes_scanned"] = float64(ct[obs.SSPANodesScanned])
	rep.layer["bipartite.edges_materialized"] = float64(ct[obs.SSPAEdgesMaterialized])
	rep.layer["bipartite.searches"] = float64(ct[obs.SSPASearches])
	rep.layer["solver.nodes_expanded"] = float64(ct[obs.BnBNodesExpanded])
	rep.layer["solver.nodes_pruned"] = float64(ct[obs.BnBNodesPruned])
	rep.layer["solver.incumbent_updates"] = float64(ct[obs.BnBIncumbentUpdates])
}
