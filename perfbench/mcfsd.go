package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"mcfs"
	"mcfs/internal/serve"
)

// The mcfsd-mixed load: an open-loop schedule at a fixed rate, timed
// from each request's scheduled send time, then a saturation phase that
// sends writes back to back.
const (
	fixedRate = 100.0 // req/s; server-side writes take about a quarter of the phase
	readShare = 0.8   // the rest are writes, half arrivals and half departures
	// spinAhead is how early the generator stops sleeping and spins, so
	// timer overshoot does not show up as request latency.
	spinAhead = time.Millisecond
)

// mcfsdInstance is the instance mcfsbench -exp serve self-hosts at
// scale 1: uniform n=2000, α=2.5, m=200, ℓ=400, k=40, capacity 10. The
// workload uses seed 1 in every run and lets the workload seed drive the
// request stream: departure cost depends on the network, so varying the
// instance too would make the latencies measure the instance draw.
func mcfsdInstance(seed int64) (*mcfs.Instance, error) {
	g, err := mcfs.GenerateSynthetic(mcfs.SyntheticConfig{N: 2000, Alpha: 2.5, Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 7))
	pool := mcfs.LargestComponent(g)
	custs := mcfs.SampleCustomersFrom(pool, 200, rng)
	return &mcfs.Instance{
		G:          g,
		Customers:  custs,
		Facilities: mcfs.SampleFacilitiesFrom(pool, 400, rng, mcfs.UniformCapacity(10)),
		K:          40,
	}, nil
}

// daemon is one mcfsd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	done    chan struct{} // closed once the process has exited
	waitErr error         // cmd.Wait's result, valid after done
}

// startDaemon launches mcfsd on a free loopback port and returns once
// /healthz answers 200.
func startDaemon(bin, instPath string) (*daemon, error) {
	cmd := exec.Command(bin, "-in", instPath, "-addr", "127.0.0.1:0", "-quiet")
	cmd.Stderr = os.Stderr
	// mcfsd must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mcfsd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			d.base = strings.Fields(rest)[0]
			break
		}
	}
	go func() {
		_, _ = io.Copy(io.Discard, out)
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	if d.base == "" {
		d.kill()
		return nil, errors.New("mcfsd exited before listening")
	}
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, _, err := get(client, d.base+"/healthz")
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("mcfsd not healthy after 60s (status %d, %v)", status, err)
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("mcfsd exited during start-up: %v", d.waitErr)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM and waits for mcfsd to exit. mcfsd can answer
// /healthz before it installs its signal handler, so dying of the
// signal itself is a clean stop too.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.kill()
		return errors.New("mcfsd did not stop on SIGTERM")
	}
	var exit *exec.ExitError
	if errors.As(d.waitErr, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if d.waitErr != nil {
		return fmt.Errorf("mcfsd: %w", d.waitErr)
	}
	return nil
}

// kill stops mcfsd at once and waits for it; safe after it exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func post(c *http.Client, url string, in any) (int, []byte, error) {
	buf, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// oneConn is a client that holds at most one connection, so each
// request class queues only behind its own class.
func oneConn() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

type opKind uint8

const (
	opRead opKind = iota
	opArrive
	opDepart
)

// schedOp is one scheduled request; r is its seeded random draw (the
// handle or node it targets is chosen from r when it is sent).
type schedOp struct {
	at   time.Duration
	kind opKind
	r    int
}

// schedule splits n = rate·dur evenly spaced requests into the read
// and the write stream. Which requests are writes is random; the writes
// alternate arrival and departure, so the population stays at its
// initial size instead of drifting with the seed, and with it the cost
// of a departure's repair.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) (reads, writes []schedOp) {
	n := int(rate * dur.Seconds())
	for i := 0; i < n; i++ {
		op := schedOp{at: time.Duration(float64(i) / rate * float64(time.Second)), r: rng.Intn(1 << 30)}
		if rng.Float64() < readShare {
			reads = append(reads, op)
			continue
		}
		op.kind = opArrive
		if len(writes)%2 == 1 {
			op.kind = opDepart
		}
		writes = append(writes, op)
	}
	return reads, writes
}

// rateWindow is how many consecutive writes one saturation sample
// spans: ten arrival/departure pairs, about a quarter of a second.
const rateWindow = 20

// windowRate is the median rate, in events per second, over successive
// windows of rateWindow events (the overall rate when there are fewer).
// A median of many short windows keeps a brief stall of the machine
// from moving the result.
func windowRate(ends []time.Duration) float64 {
	if len(ends) < 2*rateWindow {
		if len(ends) == 0 {
			return 0
		}
		return float64(len(ends)) / ends[len(ends)-1].Seconds()
	}
	var rates []float64
	for i := rateWindow; i < len(ends); i += rateWindow {
		rates = append(rates, rateWindow/(ends[i]-ends[i-rateWindow]).Seconds())
	}
	return median(rates)
}

// backToBack is a write stream for the saturation phase. Every op is
// due at once, so each is sent when the previous one completes, and
// arrivals and departures alternate, so every window of rateWindow
// writes does the same mix of work.
func backToBack(rng *rand.Rand, n int) []schedOp {
	ops := make([]schedOp, n)
	for i := range ops {
		ops[i] = schedOp{kind: opArrive, r: rng.Intn(1 << 30)}
		if i%2 == 1 {
			ops[i].kind = opDepart
		}
	}
	return ops
}

// population is the generator's view of the live customer handles.
type population struct {
	mu       sync.Mutex
	live     []int
	nodeOf   map[int]int32
	departed map[int]bool
}

func (p *population) pick(r int) (int, int32, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.live) == 0 {
		return 0, 0, false
	}
	h := p.live[r%len(p.live)]
	return h, p.nodeOf[h], true
}

// take removes a live handle and marks it departed before its
// departure is sent, so a read that still races it may see 404.
func (p *population) take(r int) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.live) == 0 {
		return 0, false
	}
	i := r % len(p.live)
	h := p.live[i]
	p.live[i] = p.live[len(p.live)-1]
	p.live = p.live[:len(p.live)-1]
	p.departed[h] = true
	return h, true
}

func (p *population) add(h int, node int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live = append(p.live, h)
	p.nodeOf[h] = node
}

func (p *population) wasDeparted(h int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.departed[h]
}

// writeRec is one applied write, kept for the in-process replay.
type writeRec struct {
	kind   opKind
	node   int32
	handle int
}

// loadgen drives one mcfsd over two connections: reads on one, writes
// on the other.
type loadgen struct {
	base      string
	inst      *mcfs.Instance
	nodes     []int32 // arrival locations
	pop       *population
	reader    *http.Client
	writer    *http.Client
	log       []writeRec
	objective int64 // objective reported by the last write
}

// phase is the outcome of one schedule.
type phase struct {
	reads, writes, late []float64  // ms
	departs             []timedReq // the departures, for the windowed statistics
	errs                []error
	attempted           int
	writeEnds           []time.Duration // completion times of the writes, from the phase start
}

// timedReq is one request's due offset and latency in ms.
type timedReq struct {
	at time.Duration
	ms float64
}

// windowed is the median, over one-second windows of due time, of each
// window's q-quantile latency. The machine the benchmark shares can
// stall for a few seconds; such a stall moves a few windows, not the
// median of all of them.
func windowed(reqs []timedReq, q float64) float64 {
	byWindow := map[time.Duration][]float64{}
	for _, r := range reqs {
		w := r.at / time.Second
		byWindow[w] = append(byWindow[w], r.ms)
	}
	var qs []float64
	for _, xs := range byWindow {
		qs = append(qs, quantile(xs, q))
	}
	return median(qs)
}

// run sends both streams, each on its own connection, and waits for
// them. No request is sent after limit (0 means no limit).
func (lg *loadgen) run(reads, writes []schedOp, limit time.Duration) *phase {
	ph := &phase{}
	var mu sync.Mutex
	record := func(lat *[]float64, latency, late time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		ph.attempted++
		*lat = append(*lat, ms(latency))
		ph.late = append(ph.late, ms(late))
		if err != nil {
			ph.errs = append(ph.errs, err)
		}
	}
	start := time.Now()
	var deadline time.Time
	if limit > 0 {
		deadline = start.Add(limit)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		lg.stream(start, deadline, reads, func(_ schedOp, latency, late time.Duration, err error) {
			record(&ph.reads, latency, late, err)
		}, lg.read)
	}()
	go func() {
		defer wg.Done()
		lg.stream(start, deadline, writes, func(op schedOp, latency, late time.Duration, err error) {
			record(&ph.writes, latency, late, err)
			if op.kind == opDepart {
				ph.departs = append(ph.departs, timedReq{op.at, ms(latency)})
			}
			ph.writeEnds = append(ph.writeEnds, time.Since(start))
		}, lg.write)
	}()
	wg.Wait()
	return ph
}

// stream sends ops in schedule order, each at its due time or as soon
// as the previous one on the connection completed. done receives the
// op, its latency from the due time, and the generator's own lag: send
// time minus the later of the due time and the moment the connection
// became free.
func (lg *loadgen) stream(start, deadline time.Time, ops []schedOp, done func(op schedOp, latency, late time.Duration, err error), send func(schedOp) error) {
	free := start
	for _, op := range ops {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
		due := start.Add(op.at)
		if d := time.Until(due) - spinAhead; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		sent := time.Now()
		err := send(op)
		end := time.Now()
		if due.Before(free) {
			due = free
		}
		done(op, end.Sub(start.Add(op.at)), sent.Sub(due), err)
		free = end
	}
}

func (lg *loadgen) read(op schedOp) error {
	h, node, ok := lg.pop.pick(op.r)
	if !ok {
		return errors.New("assign: no live customers")
	}
	status, body, err := get(lg.reader, fmt.Sprintf("%s/assign?customer=%d", lg.base, h))
	if err != nil {
		return fmt.Errorf("assign %d: %w", h, err)
	}
	switch status {
	case http.StatusOK:
	case http.StatusNotFound:
		if lg.pop.wasDeparted(h) {
			return nil // documented: the handle departed while the read was in flight
		}
		return fmt.Errorf("assign %d: 404 for a live handle", h)
	default:
		return fmt.Errorf("assign %d: status %d", h, status)
	}
	var rep serve.AssignReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("assign %d: %w", h, err)
	}
	if rep.Customer != h || rep.Node != node || rep.Facility < 0 || rep.Facility >= lg.inst.L() ||
		lg.inst.Facilities[rep.Facility].Node != rep.FacilityNode {
		return fmt.Errorf("assign %d: inconsistent reply %+v (customer node %d)", h, rep, node)
	}
	return nil
}

func (lg *loadgen) write(op schedOp) error {
	var (
		status int
		body   []byte
		err    error
		rec    = writeRec{kind: op.kind}
	)
	switch op.kind {
	case opArrive:
		rec.node = lg.nodes[op.r%len(lg.nodes)]
		status, body, err = post(lg.writer, lg.base+"/arrivals", serve.ArrivalsRequest{Nodes: []int32{rec.node}})
	case opDepart:
		h, ok := lg.pop.take(op.r)
		if !ok {
			return errors.New("departures: no live customers")
		}
		rec.handle = h
		status, body, err = post(lg.writer, lg.base+"/departures", serve.DeparturesRequest{Handles: []int{h}})
	}
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("write kind %d: status %d: %s", op.kind, status, bytes.TrimSpace(body))
	}
	var rep serve.ChurnReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if op.kind == opArrive {
		if len(rep.Handles) != 1 {
			return fmt.Errorf("arrivals: %d handles for one node", len(rep.Handles))
		}
		rec.handle = rep.Handles[0]
		lg.pop.add(rec.handle, rec.node)
	}
	lg.log = append(lg.log, rec)
	lg.objective = rep.Objective
	return nil
}

func runMCFSD(cfg config) (*report, error) {
	if cfg.mcfsd == "" {
		return nil, errors.New("mcfsd-mixed needs --mcfsd")
	}
	dir, err := os.MkdirTemp(cfg.workDir, "mcfsd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	instPath := filepath.Join(dir, "inst.mcfs")
	instSeed := int64(1)
	if cfg.holdout {
		instSeed = heldOutSeeds[cfg.workload][0]
	}

	type launched struct {
		inst *mcfs.Instance
		d    *daemon
	}
	var prev *daemon
	l, setup, err := timedSetup(cfg, func() (launched, error) {
		if prev != nil {
			if err := prev.stop(); err != nil {
				return launched{}, err
			}
		}
		inst, err := mcfsdInstance(instSeed)
		if err != nil {
			return launched{}, err
		}
		if err := writeInstance(instPath, inst); err != nil {
			return launched{}, err
		}
		d, err := startDaemon(cfg.mcfsd, instPath)
		prev = d
		return launched{inst, d}, err
	})
	if err != nil {
		if prev != nil {
			prev.kill()
		}
		return nil, err
	}
	d, inst := l.d, l.inst
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	rep := newReport()
	rep.e2e["setup_s"] = setup

	lg := &loadgen{
		base: d.base, inst: inst, nodes: mcfs.LargestComponent(inst.G),
		pop:    &population{nodeOf: map[int]int32{}, departed: map[int]bool{}},
		reader: oneConn(), writer: oneConn(),
	}
	snap, err := fetchSnapshot(lg.reader, d.base)
	if err != nil {
		return nil, err
	}
	for i, h := range snap.Handles {
		lg.pop.add(h, snap.CustomerNodes[i])
	}
	// The objective is the one mcfsd serves once healthy. After churn
	// the objective depends on which customers the stream added and
	// removed, so it would measure the seed rather than the program; the
	// churned state is checked against the oracle instead.
	st, err := fetchStats(lg.reader, d.base)
	if err != nil {
		return nil, err
	}
	rep.e2e["objective"] = float64(st.Objective)

	// Fixed-rate phase: the latencies and the server-side deltas. It
	// gets half the time, so a 30 s run sends about 1200 reads and 300
	// writes, 150 of them departures; the saturation phase gets the rest.
	fixedDur := cfg.seconds / 2
	satDur := cfg.seconds - fixedDur
	if cfg.short {
		fixedDur, satDur = time.Second, time.Second
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	before, err := scrape(lg.reader, d.base)
	if err != nil {
		return nil, err
	}
	fixedReads, fixedWrites := schedule(rng, fixedRate, fixedDur)
	fixed := lg.run(fixedReads, fixedWrites, 0)
	after, err := scrape(lg.reader, d.base)
	if err != nil {
		return nil, err
	}
	// The served state after the fixed-rate phase is a function of the
	// seed alone, so the traced run probes and replays this state: its
	// counts then repeat exactly, whereas the saturation phase's length
	// in writes depends on the machine.
	fixedLog, fixedObjective := len(lg.log), lg.objective
	fixedInst, fixedSol, err := checkEndState(lg, inst)
	rep.op(err)
	// The latencies are the departures'. A read's latency at this rate is
	// almost all the machine waking from idle (back to back, reads take a
	// tenth of it), so it measures the host rather than mcfsd; the
	// traced run reports it by class.
	rep.e2e["latency_p50_ms"] = windowed(fixed.departs, 0.5)
	rep.e2e["latency_tail_ms"] = windowed(fixed.departs, 0.9)
	rep.note("mcfsd-mixed: fixed rate %.0f/s for %s: %d reads, %d writes (%d departures); read p50 %.3f p99 %.3f ms, write p50 %.3f p90 %.3f ms, lag p50 %.3f p99 %.3f ms",
		fixedRate, fixedDur, len(fixed.reads), len(fixed.writes), len(fixed.departs),
		median(fixed.reads), quantile(fixed.reads, 0.99), median(fixed.writes), quantile(fixed.writes, 0.9),
		median(fixed.late), quantile(fixed.late, 0.99))

	// Saturation phase: reads keep the fixed rate, writes go back to
	// back. The single writer bounds the mix, so the request rate it
	// sustains is the write throughput over the writes' share.
	satReads, _ := schedule(rng, fixedRate, satDur)
	sat := lg.run(satReads, backToBack(rng, int(satDur.Seconds()*2000)+1), satDur)
	writeRate := windowRate(sat.writeEnds)
	rep.e2e["rate_per_s"] = writeRate / (1 - readShare)
	rep.note("saturation for %s: %d writes back to back (median %.1f/s over windows of %d), %d reads at %.0f/s",
		satDur, len(sat.writes), writeRate, rateWindow, len(sat.reads), fixedRate*readShare)
	for _, ph := range []*phase{fixed, sat} {
		for _, e := range ph.errs {
			rep.op(e)
		}
		for i := len(ph.errs); i < ph.attempted; i++ {
			rep.op(nil)
		}
	}

	// End state: restore the published state in-process and check it
	// against the assignment oracle.
	_, _, err = checkEndState(lg, inst)
	rep.op(err)
	rss, err := peakRSSMiB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	rep.e2e["peak_rss_mb"] = rss

	if cfg.trace {
		serverLayers(rep, before, after, fixed)
		if fixedSol != nil {
			var p probes
			p.run(context.Background(), fixedInst, fixedSol, rep)
			p.emit(rep)
		}
		replay(rep, inst, lg.log[:fixedLog], fixedObjective)
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func writeInstance(path string, inst *mcfs.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mcfs.WriteInstance(f, inst); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fetchSnapshot(c *http.Client, base string) (*mcfs.ReallocatorSnapshot, error) {
	status, body, err := get(c, base+"/snapshot")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("snapshot: status %d", status)
	}
	return mcfs.ReadReallocatorSnapshot(bytes.NewReader(body))
}

func fetchStats(c *http.Client, base string) (*serve.StatsReply, error) {
	status, body, err := get(c, base+"/stats")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", status)
	}
	var st serve.StatsReply
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// checkEndState is the differential oracle on the served state: the
// snapshot restores to a valid solution whose objective is the unique
// optimum of assigning the live customers to the published selection,
// and equals what /stats publishes.
func checkEndState(lg *loadgen, inst *mcfs.Instance) (*mcfs.Instance, *mcfs.Solution, error) {
	snap, err := fetchSnapshot(lg.reader, lg.base)
	if err != nil {
		return nil, nil, err
	}
	r, err := mcfs.RestoreReallocator(inst, snap, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	live, sol, err := r.Solution()
	if err != nil {
		return nil, nil, err
	}
	if _, err := live.CheckSolution(sol); err != nil {
		return nil, nil, fmt.Errorf("end state: %w", err)
	}
	opt, err := mcfs.AssignToSelection(live, sol.Selected)
	if err != nil {
		return nil, nil, fmt.Errorf("end state oracle: %w", err)
	}
	if opt.Objective != sol.Objective {
		return nil, nil, fmt.Errorf("end state objective %d, oracle %d", sol.Objective, opt.Objective)
	}
	st, err := fetchStats(lg.reader, lg.base)
	if err != nil {
		return nil, nil, err
	}
	if st.Objective != sol.Objective || st.Customers != len(sol.Assignment) {
		return nil, nil, fmt.Errorf("stats publish objective %d for %d customers, snapshot %d for %d",
			st.Objective, st.Customers, sol.Objective, len(sol.Assignment))
	}
	return live, sol, nil
}
