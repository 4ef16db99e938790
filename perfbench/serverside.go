package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcfs"
)

// promScrape is one parse of mcfsd's /metrics: plain samples by metric
// name, and the request-duration histogram as cumulative buckets per
// endpoint.
type promScrape struct {
	samples map[string]float64
	buckets map[string][]promBucket
	sums    map[string]float64
}

type promBucket struct {
	le  float64 // seconds
	cum float64
}

func scrape(c *http.Client, base string) (*promScrape, error) {
	status, body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", status)
	}
	s := &promScrape{samples: map[string]float64{}, buckets: map[string][]promBucket{}, sums: map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name, labels, _ := strings.Cut(line[:i], "{")
		endpoint := label(labels, "endpoint")
		switch name {
		case "mcfsd_request_duration_seconds_bucket":
			le, err := strconv.ParseFloat(label(labels, "le"), 64)
			if err != nil { // "+Inf" parses; anything else is malformed
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			s.buckets[endpoint] = append(s.buckets[endpoint], promBucket{le, v})
		case "mcfsd_request_duration_seconds_sum":
			s.sums[endpoint] = v
		default:
			s.samples[name] = v
		}
	}
	return s, sc.Err()
}

func label(labels, key string) string {
	_, rest, ok := strings.Cut(labels, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// cumAt is the histogram's cumulative count at bound le. The exposition
// omits buckets that do not change the count, so the count at an
// omitted bound is that of the nearest listed bound below it.
func cumAt(bs []promBucket, le float64) float64 {
	c := 0.0
	for _, b := range bs {
		if b.le > le {
			break
		}
		c = b.cum
	}
	return c
}

// deltaQuantile is the q-quantile, as a bucket upper bound in ms, of the
// requests an endpoint served between two scrapes.
func deltaQuantile(before, after *promScrape, endpoint string, q float64) float64 {
	b, a := before.buckets[endpoint], after.buckets[endpoint]
	var les []float64
	for _, x := range a {
		if !math.IsInf(x.le, 1) {
			les = append(les, x.le)
		}
	}
	for _, x := range b {
		if !math.IsInf(x.le, 1) {
			les = append(les, x.le)
		}
	}
	sort.Float64s(les)
	total := cumAt(a, math.Inf(1)) - cumAt(b, math.Inf(1))
	if total <= 0 {
		return 0
	}
	for _, le := range les {
		if cumAt(a, le)-cumAt(b, le) >= q*total {
			return 1000 * le
		}
	}
	return 0
}

// serverLayers reports the serve and dynamic layers from the deltas of
// mcfsd's own /metrics across the fixed-rate phase, beside the
// client-side view of the same requests.
func serverLayers(rep *report, before, after *promScrape, fixed *phase) {
	delta := func(name string) float64 { return after.samples[name] - before.samples[name] }
	count := func(endpoint string) float64 {
		return cumAt(after.buckets[endpoint], math.Inf(1)) - cumAt(before.buckets[endpoint], math.Inf(1))
	}
	rep.layer["serve.read_client_p50_ms"] = median(fixed.reads)
	rep.layer["serve.read_client_p99_ms"] = quantile(fixed.reads, 0.99)
	rep.layer["serve.write_client_p50_ms"] = median(fixed.writes)
	rep.layer["serve.write_client_p90_ms"] = quantile(fixed.writes, 0.9)
	rep.layer["serve.assign_server_p50_ms"] = deltaQuantile(before, after, "assign", 0.5)
	rep.layer["serve.arrivals_server_p50_ms"] = deltaQuantile(before, after, "arrivals", 0.5)
	rep.layer["serve.departures_server_p50_ms"] = deltaQuantile(before, after, "departures", 0.5)
	if b := delta("mcfsd_batches_total"); b > 0 {
		rep.layer["serve.ops_per_batch"] = delta("mcfsd_batched_ops_total") / b
	}
	rep.layer["dynamic.repairs"] = delta("mcfs_realloc_repairs_total")
	rep.layer["dynamic.full_solves"] = delta("mcfs_realloc_full_solves_total")
	if dep := count("departures"); dep > 0 {
		rep.layer["dynamic.rerouted_per_departure"] = delta("mcfs_realloc_rerouted_customers_total") / dep
	}
	rep.layer["loadgen.late_p99_ms"] = quantile(fixed.late, 0.99)
	busy := after.sums["arrivals"] - before.sums["arrivals"] + after.sums["departures"] - before.sums["departures"]
	span := after.samples["mcfsd_uptime_seconds"] - before.samples["mcfsd_uptime_seconds"]
	if span > 0 {
		rep.note("writer busy %.0f%% of the fixed-rate phase (server-side write time / phase time)", 100*busy/span)
	}
}

// replayResult times one in-process replay of the served write stream.
type replayResult struct {
	total, add, publishRebuild, publishPlain []float64
	objective                                int64
}

// replayOnce applies the write log to a fresh Reallocator on the same
// instance, publishing after every op as mcfsd does with a batch of
// one, and checks each arrival gets the handle mcfsd gave it.
func replayOnce(ctx context.Context, inst *mcfs.Instance, log []writeRec) (*replayResult, error) {
	res := &replayResult{}
	start := time.Now()
	r, err := mcfs.NewReallocatorCtx(ctx, inst, 0)
	if err != nil {
		return nil, err
	}
	if _, err := r.Publish(); err != nil {
		return nil, err
	}
	for i, w := range log {
		switch w.kind {
		case opArrive:
			t := time.Now()
			h, err := r.AddCustomer(w.node)
			res.add = append(res.add, us(time.Since(t)))
			if err != nil {
				return nil, fmt.Errorf("replay op %d: %w", i, err)
			}
			if h != w.handle {
				return nil, fmt.Errorf("replay op %d: handle %d, mcfsd gave %d", i, h, w.handle)
			}
		case opDepart:
			if err := r.RemoveCustomer(w.handle); err != nil {
				return nil, fmt.Errorf("replay op %d: %w", i, err)
			}
		}
		t := time.Now()
		pub, err := r.Publish()
		d := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("replay op %d publish: %w", i, err)
		}
		if w.kind == opDepart {
			res.publishRebuild = append(res.publishRebuild, ms(d))
		} else {
			res.publishPlain = append(res.publishPlain, us(d))
		}
		res.objective = pub.Objective
	}
	res.total = append(res.total, time.Since(start).Seconds())
	return res, nil
}

// replay runs the write log untraced (dynamic timings) and traced
// (spans, counters, tracing overhead). Both must end at the objective
// mcfsd served after the same stream.
func replay(rep *report, inst *mcfs.Instance, log []writeRec, served int64) {
	plain, err := replayOnce(context.Background(), inst, log)
	if err == nil && plain.objective != served {
		err = fmt.Errorf("replay objective %d, mcfsd served %d", plain.objective, served)
	}
	rep.op(err)
	if err != nil {
		return
	}
	ctx, rec := tracedCtx(true)
	traced, err := replayOnce(ctx, inst, log)
	rep.op(err)
	if err != nil {
		return
	}
	rep.layer["dynamic.add_us_p50"] = median(plain.add)
	rep.layer["dynamic.publish_rebuild_ms_p50"] = median(plain.publishRebuild)
	rep.layer["dynamic.publish_plain_us_p50"] = median(plain.publishPlain)
	rep.layer["trace.overhead_ratio"] = traced.total[0] / plain.total[0]
	var st spanTotals
	st.add(rec)
	ct := counterTotals{}
	ct.add(rec)
	emitTrace(rep, st, ct)
}
