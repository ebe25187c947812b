package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/metrics"
	"clnlr/internal/serve"
	"clnlr/internal/serve/client"
	"clnlr/internal/sim"
)

// serve-mixed drives meshsimd with a closed loop of serveConns
// connections over a request sequence fixed by the seed. Requests come in
// shuffled blocks of serveBlock: serveHits repeat submissions of the
// pre-warmed base set (cache hits), serveColds single runs with fresh
// seeds (engine runs + cache writes) and one sweep (2 schemes × 2
// replications through the experiments planner). Repeats only name base
// entries, which are complete before the measured loop starts, so every
// request's disposition is fixed by the sequence: no joins, no sheds.
//
// The mix is synthetic; no record of real meshsimd traffic exists to
// calibrate it against. Hits are exactly half of every block (the floor
// the workload is specified with), one sweep per block stands for a small
// share, and repeats are uniform over the base set, with a memory tier
// holding about half of it so that some hits come from the disk tier. The
// block and base-set sizes are bare choices (see README.md).
const (
	serveConns      = 2
	serveBlock      = 20
	serveHits       = 10
	serveColds      = 9
	serveBaseKeys   = 48
	serveCacheBytes = 57 << 10              // memory tier: about half the base set's ≈116 KB of reports
	serveStartups   = 9                     // daemon start-ups timed for setup_s
	recorderIvl     = 100 * des.Millisecond // the flight-recorder interval meshsimd uses by default
)

// daemonFlags configures meshsimd exactly like inProcessConfig.
func daemonFlags(cacheDir string) []string {
	return []string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "16", "-job-workers", "1",
		"-cache-dir", cacheDir, "-cache-bytes", strconv.Itoa(serveCacheBytes), "-cache-entries", "1024"}
}

func inProcessConfig(cacheDir string) serve.Config {
	return serve.Config{Workers: 2, QueueDepth: 16, JobWorkers: 1, CacheDir: cacheDir,
		CacheMaxBytes: serveCacheBytes, CacheMaxEntries: 1024}
}

type reqKind int

const (
	kindHit reqKind = iota
	kindCold
	kindSweep
)

func (k reqKind) String() string { return [...]string{"hit", "cold", "sweep"}[k] }

// request is one element of the sequence. sc is the scenario a cold run or
// sweep executes (for the direct-run checks); base names the base entry a
// hit repeats.
type request struct {
	kind       reqKind
	base       int
	sc         sim.Scenario
	run        serve.RunRequest
	sweep      serve.SweepRequest
	simSeconds float64 // simulated seconds the engine runs for it (0 for a hit)
}

// runScenario is the 49-node default grid with a short 5 s session: the
// shape of both the base set and the cold runs.
func runScenario(seed uint64, label, i uint64) sim.Scenario {
	sc := sim.DefaultScenario()
	sc.Name = "serve-run"
	sc.SessionTime = 5 * des.Second
	sc.Warmup = 0
	sc.Measure = 5 * des.Second
	schemes := sim.AllSchemes()
	sc.Scheme = schemes[i%uint64(len(schemes))]
	sc.Seed = mix(seed, label, i)
	return sc
}

func runRequestFor(sc sim.Scenario) request {
	raw, err := json.Marshal(sc)
	if err != nil {
		panic(err) // sim.Scenario is plain data
	}
	return request{kind: kindCold, sc: sc, run: serve.RunRequest{Scenario: raw},
		simSeconds: (sc.Warmup + sc.Measure).Seconds()}
}

var sweepSchemes = []string{string(sim.SchemeFlood), string(sim.SchemeCLNLR)}

const sweepReps = 2

// sweepRequestFor is a sweep over the cold runs' scenario shape.
func sweepRequestFor(seed uint64, i int) request {
	sc := runScenario(seed, 5, uint64(i))
	sc.Name = "serve-sweep"
	raw, err := json.Marshal(sc)
	if err != nil {
		panic(err)
	}
	return request{kind: kindSweep, sc: sc,
		sweep: serve.SweepRequest{Name: fmt.Sprintf("sweep-%d", i), Scenario: raw,
			Schemes: sweepSchemes, Reps: sweepReps},
		simSeconds: float64(len(sweepSchemes)*sweepReps) * (sc.Warmup + sc.Measure).Seconds()}
}

func baseRequest(seed uint64, k int) request { return runRequestFor(runScenario(seed, 3, uint64(k))) }

// serveRequest returns element i of the seed's request sequence.
func serveRequest(seed uint64, base []request, i int) request {
	block, pos := i/serveBlock, i%serveBlock
	perm := make([]int, serveBlock)
	for j := range perm {
		perm[j] = j
	}
	for j := serveBlock - 1; j > 0; j-- {
		k := int(mix(seed, 6, uint64(block), uint64(j)) % uint64(j+1))
		perm[j], perm[k] = perm[k], perm[j]
	}
	switch slot := perm[pos]; {
	case slot < serveHits:
		k := int(mix(seed, 4, uint64(i)) % serveBaseKeys)
		req := base[k]
		req.kind, req.base, req.simSeconds = kindHit, k, 0
		return req
	case slot < serveHits+serveColds:
		return runRequestFor(runScenario(seed, 2, uint64(i)))
	default:
		return sweepRequestFor(seed, i)
	}
}

// served is one completed request as the client saw it.
type served struct {
	latency time.Duration
	done    time.Duration // completion, from the start of the pass
	res     client.Result
	err     error
}

func submit(ctx context.Context, c *client.Client, req request) served {
	start := time.Now()
	var s served
	if req.kind == kindSweep {
		s.res, s.err = c.Sweep(ctx, req.sweep)
	} else {
		s.res, s.err = c.Run(ctx, req.run)
	}
	s.latency = time.Since(start)
	return s
}

// drive runs the closed loop: serveConns goroutines take the next request
// index as soon as their previous request completes. With n == 0 it stops
// issuing at the first block boundary after budget has elapsed, so a pass
// is whole blocks with the exact mix; with n > 0 it issues exactly
// requests 0..n-1. Indices are handed out and the stop decided under one
// lock, so the issued requests are always 0..k-1.
func drive(c *client.Client, seed uint64, base []request, budget time.Duration, n int) ([]request, []served, time.Duration) {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		reqs    = map[int]request{}
		res     = map[int]served{}
		wg      sync.WaitGroup
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (n > 0 && next >= n) || (n == 0 && next > 0 && next%serveBlock == 0 && time.Since(start) >= budget) {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				req := serveRequest(seed, base, i)
				s := submit(context.Background(), c, req)
				s.done = time.Since(start)
				mu.Lock()
				reqs[i], res[i] = req, s
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	outReqs := make([]request, len(reqs))
	outRes := make([]served, len(res))
	for i := range outReqs {
		outReqs[i], outRes[i] = reqs[i], res[i]
	}
	return outReqs, outRes, wall
}

// prewarm submits the base set (all cold) and returns its response bytes,
// which every later hit must reproduce exactly.
func prewarm(c *client.Client, base []request) ([][]byte, error) {
	bodies := make([][]byte, len(base))
	errs := make([]error, len(base))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(base) {
					return
				}
				s := submit(context.Background(), c, base[k])
				bodies[k], errs[k] = s.res.Body, s.err
				if s.err == nil && s.res.Cache != "miss" {
					errs[k] = fmt.Errorf("base entry %d was already cached (%s)", k, s.res.Cache)
				}
			}
		}()
	}
	wg.Wait()
	return bodies, errors.Join(errs...)
}

// servePass is one measured pass against a server.
type servePass struct {
	reqs     []request
	res      []served
	wall     time.Duration
	before   serve.Stats
	after    serve.Stats
	baseBody [][]byte
}

func runServePass(addr string, seed uint64, budget time.Duration, n int) (servePass, error) {
	c := client.New(addr)
	base := make([]request, serveBaseKeys)
	for k := range base {
		base[k] = baseRequest(seed, k)
	}
	var p servePass
	var err error
	if p.baseBody, err = prewarm(c, base); err != nil {
		return p, fmt.Errorf("prewarm: %w", err)
	}
	ctx := context.Background()
	if p.before, err = c.Stats(ctx); err != nil {
		return p, err
	}
	p.reqs, p.res, p.wall = drive(c, seed, base, budget, n)
	p.after, err = c.Stats(ctx)
	return p, err
}

// checkServed applies the correctness gate to every response: transport
// errors and non-2xx fail; a hit must carry X-Cache: hit and the exact
// bytes of its original miss; cold runs and sweeps must be misses, and a
// sweep must hold one cell per scheme with every replication.
func (p servePass) checkServed(out *outcome, label string) {
	for i, s := range p.res {
		req := p.reqs[i]
		out.attempted++
		switch {
		case s.err != nil:
			out.fail("%s request %d (%s): %v", label, i, req.kind, s.err)
		case req.kind == kindHit && (s.res.Cache != "hit" || !bytes.Equal(s.res.Body, p.baseBody[req.base])):
			out.fail("%s request %d: hit (X-Cache %q) differs from the bytes of its original miss", label, i, s.res.Cache)
		case req.kind != kindHit && s.res.Cache != "miss":
			out.fail("%s request %d (%s): expected a miss, got X-Cache %q", label, i, req.kind, s.res.Cache)
		case req.kind == kindSweep:
			var rep serve.SweepReport
			if err := json.Unmarshal(s.res.Body, &rep); err != nil || len(rep.Cells) != len(sweepSchemes) {
				out.fail("%s request %d: malformed sweep report (%v)", label, i, err)
				continue
			}
			for _, cell := range rep.Cells {
				if cell.Reps != sweepReps || len(cell.Results) != sweepReps {
					out.fail("%s request %d: sweep cell %q has %d replications", label, i, cell.Label, len(cell.Results))
				}
			}
		}
	}
}

// latencies returns the client-side latencies (ms) of the requests of a
// kind.
func (p servePass) latencies(kind reqKind) []float64 {
	var xs []float64
	for i, s := range p.res {
		if p.reqs[i].kind == kind {
			xs = append(xs, float64(s.latency)/1e6)
		}
	}
	return xs
}

// windowRates returns the median, over the pass's whole one-second
// windows, of completed requests and of the simulated seconds the engine
// ran for them (cold runs and sweeps) — medians discount a window slowed
// by another tenant of the host.
// A pass shorter than two windows is rated as a whole.
func (p servePass) windowRates() (ops, simSeconds float64) {
	n := int(p.wall / time.Second)
	if n < 2 {
		var sim float64
		for _, r := range p.reqs {
			sim += r.simSeconds
		}
		return float64(len(p.res)) / p.wall.Seconds(), sim / p.wall.Seconds()
	}
	count := make([]float64, n)
	sim := make([]float64, n)
	for i, s := range p.res {
		if w := int(s.done / time.Second); w < n {
			count[w]++
			sim[w] += p.reqs[i].simSeconds
		}
	}
	return median(count), median(sim)
}

// firstOf returns the index of the first request of a kind (-1 if none).
func (p servePass) firstOf(kind reqKind) int {
	for i, r := range p.reqs {
		if r.kind == kind {
			return i
		}
	}
	return -1
}

// directRun mirrors the daemon's single-run path through public functions
// on a fresh engine — RunJourney with the 100 ms flight recorder, then
// BuildReport, Canonical and WriteJSON — timing the engine and the
// encoding separately.
func directRun(sc sim.Scenario) (body []byte, engine, encode time.Duration, err error) {
	col := metrics.NewCollector(recorderIvl)
	start := time.Now()
	r, err := sim.RunJourney(sc, nil, col, nil)
	engine = time.Since(start)
	if err != nil {
		return nil, engine, 0, err
	}
	start = time.Now()
	var buf bytes.Buffer
	err = sim.BuildReport(sc, r, col).Canonical().WriteJSON(&buf)
	encode = time.Since(start)
	return buf.Bytes(), engine, encode, err
}

// directSweep mirrors the daemon's sweep path: the same cells through
// experiments.RunCells with a checkpoint directory, wrapped in the same
// SweepReport encoding.
func directSweep(req request, dir string) ([]byte, time.Duration, error) {
	specs := make([]experiments.CellSpec, len(req.sweep.Schemes))
	for i, s := range req.sweep.Schemes {
		specs[i] = experiments.CellSpec{Label: fmt.Sprintf("%s %s", req.sweep.Name, s), Scenario: req.sc.WithScheme(sim.Scheme(s))}
	}
	start := time.Now()
	cells, err := experiments.RunCells(experiments.Config{Reps: req.sweep.Reps, Workers: 1, Seed: req.sc.Seed,
		ReportDir: dir, Resume: true}, specs)
	wall := time.Since(start)
	if err != nil {
		return nil, wall, err
	}
	data, err := json.MarshalIndent(serve.SweepReport{Name: req.sweep.Name, Fingerprint: req.sc.Fingerprint(),
		Seed: req.sc.Seed, Reps: req.sweep.Reps, Cells: cells}, "", "  ")
	return append(data, '\n'), wall, err
}

// directCheck compares the served bytes of cold run idx with a direct
// in-process run of the same scenario.
func (p servePass) directCheck(idx int, out *outcome, label string) (engine, encode time.Duration) {
	out.attempted++
	body, engine, encode, err := directRun(p.reqs[idx].sc)
	if err != nil || !bytes.Equal(body, p.res[idx].res.Body) {
		out.fail("%s cold request %d: served bytes differ from a direct run (err=%v)", label, idx, err)
	}
	return engine, encode
}

// daemon is a meshsimd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
}

// firstLine captures the first line written to it.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	done bool
	ch   chan string
}

func (w *firstLine) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.done {
		w.buf = append(w.buf, p...)
		if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
			w.done = true
			w.ch <- string(w.buf[:i])
		}
	}
	return len(p), nil
}

// startDaemon execs meshsimd and returns once /healthz answers, with the
// time from exec to that first healthy answer.
func startDaemon(bin, cacheDir string) (*daemon, time.Duration, error) {
	d := &daemon{cmd: exec.Command(bin, daemonFlags(cacheDir)...)}
	lines := &firstLine{ch: make(chan string, 1)}
	d.cmd.Stdout = lines
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*daemon, time.Duration, error) {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		return nil, 0, fmt.Errorf("meshsimd: %w (stderr: %s)", err, strings.TrimSpace(d.stderr.String()))
	}
	select {
	case line := <-lines.ch:
		const prefix = "meshsimd listening on http://"
		if !strings.HasPrefix(line, prefix) {
			return fail(fmt.Errorf("unexpected first line %q", line))
		}
		d.addr = strings.TrimPrefix(line, prefix)
	case <-time.After(30 * time.Second):
		return fail(errors.New("no listening line within 30 s"))
	}
	c := client.New(d.addr)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Health(ctx)
		cancel()
		if err == nil {
			break
		}
		if time.Since(start) > 30*time.Second {
			return fail(err)
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start), nil
}

// stop sends SIGTERM (graceful drain) and waits for the exit; a daemon
// still running after 30 s is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		// meshsimd prints its listening line and serves /healthz before it
		// installs its signal handler, so a SIGTERM right after start-up
		// can still take the default action. Nothing was in flight then.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("meshsimd did not drain within 30 s")
	}
}

func (d *daemon) peakRSS() (float64, error) { return vmHWM(strconv.Itoa(d.cmd.Process.Pid)) }

// inProcess is a serve.Server on a loopback listener inside this process,
// so the CPU profiler sees its handlers, cache and engine runs.
type inProcess struct {
	srv  *serve.Server
	http *http.Server
	addr string
	done chan error
}

func startInProcess(cacheDir string) (*inProcess, error) {
	srv, err := serve.New(inProcessConfig(cacheDir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return nil, errors.Join(err, srv.Shutdown(ctx))
	}
	s := &inProcess{srv: srv, http: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(s.srv.Shutdown(ctx), s.http.Shutdown(ctx))
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func runServe(o options) (*outcome, error) {
	if o.daemon == "" {
		return nil, errors.New("serve-mixed needs -daemon")
	}
	out := &outcome{metrics: map[string]float64{}}
	if o.trace {
		// Timed first, in a fresh process, as on the sim workloads.
		build, err := medianColdBuild(runScenario(o.seed, 2, 0), coldBuilds)
		if err != nil {
			return nil, err
		}
		out.metrics["sim.cold_build_ms"] = build * 1000
	}
	var startups []float64
	var d *daemon
	for i := 0; i < serveStartups; i++ {
		dir, err := scratchDir(o, fmt.Sprintf("cache-%d", i))
		if err != nil {
			return nil, err
		}
		dd, took, err := startDaemon(o.daemon, dir)
		if err != nil {
			return nil, err
		}
		startups = append(startups, took.Seconds())
		if i < serveStartups-1 {
			if err := dd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	p, perr := runServePass(d.addr, o.seed, o.passBudget(), 0)
	rss, rerr := d.peakRSS()
	if err := errors.Join(perr, rerr, d.stop()); err != nil {
		return nil, err
	}
	p.checkServed(out, "untraced")
	p.statsCheck(out, "untraced")
	if i := p.firstOf(kindCold); i >= 0 {
		p.directCheck(i, out, "untraced")
	}
	out.notes = append(out.notes, fmt.Sprintf("workload=serve-mixed seed=%d requests=%d hits=%d colds=%d sweeps=%d",
		o.seed, len(p.res), len(p.latencies(kindHit)), len(p.latencies(kindCold)), len(p.latencies(kindSweep))))
	if !o.trace {
		ops, simSeconds := p.windowRates()
		m := out.metrics
		m["sim_s_per_wall_s"] = simSeconds
		m["ops_per_s"] = ops
		m["p50_ms"] = median(p.latencies(kindHit))
		m["setup_s"] = median(startups)
		m["peak_rss_mb"] = rss
		return out, nil
	}
	return out, servePerLayer(o, p, out)
}

// statsCheck verifies the daemon's own counters against the sequence:
// one engine run per cold run or sweep, a hit per repeat, nothing shed or
// failed.
func (p servePass) statsCheck(out *outcome, label string) {
	want := map[reqKind]uint64{}
	for _, r := range p.reqs {
		want[r.kind]++
	}
	d := statsDelta(p.before, p.after)
	if d.CacheHits != want[kindHit] || d.EngineRuns != want[kindCold]+want[kindSweep] ||
		d.CacheMisses != d.EngineRuns || d.Shed != 0 || d.JobsFailed != 0 {
		out.fail("%s: daemon stats %+v disagree with the sequence %v", label, d, want)
	}
}

func statsDelta(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		EngineRuns: b.EngineRuns - a.EngineRuns, CacheHits: b.CacheHits - a.CacheHits,
		CacheMisses: b.CacheMisses - a.CacheMisses, Shed: b.Shed - a.Shed,
		JobsDone: b.JobsDone - a.JobsDone, JobsFailed: b.JobsFailed - a.JobsFailed,
		CacheEntries: b.CacheEntries - a.CacheEntries, CacheEvictions: b.CacheEvictions - a.CacheEvictions,
	}
}

func servePerLayer(o options, untraced servePass, out *outcome) error {
	m := out.metrics
	m["client.hit_p50_ms"] = median(untraced.latencies(kindHit))
	m["client.hit_p99_ms"] = quantile(untraced.latencies(kindHit), 0.99)
	m["client.cold_p50_ms"] = median(untraced.latencies(kindCold))
	m["client.cold_p90_ms"] = quantile(untraced.latencies(kindCold), 0.9)
	m["client.sweep_p50_ms"] = median(untraced.latencies(kindSweep))

	// Traced pass: the same requests against an in-process server under
	// the CPU profiler.
	dir, err := scratchDir(o, "cache-traced")
	if err != nil {
		return err
	}
	srv, err := startInProcess(dir)
	if err != nil {
		return err
	}
	var traced servePass
	var perr error
	cpu, err := cpuProfile(func() error {
		traced, perr = runServePass(srv.addr, o.seed, 0, len(untraced.res))
		return perr
	})
	if err := errors.Join(err, srv.stop()); err != nil {
		return err
	}
	traced.checkServed(out, "traced")
	traced.statsCheck(out, "traced")
	// Tracing must not perturb results: every response and every
	// sequence-determined daemon counter matches the untraced pass.
	for i := range untraced.res {
		if !bytes.Equal(untraced.res[i].res.Body, traced.res[i].res.Body) {
			out.fail("traced request %d differs from untraced", i)
		}
	}
	du, dt := statsDelta(untraced.before, untraced.after), statsDelta(traced.before, traced.after)
	if du.EngineRuns != dt.EngineRuns || du.CacheHits != dt.CacheHits || du.CacheMisses != dt.CacheMisses ||
		du.Shed != dt.Shed || du.JobsDone != dt.JobsDone || du.JobsFailed != dt.JobsFailed {
		out.fail("traced daemon stats %+v differ from untraced %+v", dt, du)
	}
	m["trace.overhead_ratio"] = traced.wall.Seconds() / untraced.wall.Seconds()

	// Engine-layer counts come from the cold runs' reports; sweeps run the
	// same shape of scenario, so their share of the profiled engine work is
	// extrapolated at the cold runs' rates.
	var counts layerCounts
	var engineSimSeconds float64
	for i, r := range traced.reqs {
		if r.kind == kindHit {
			continue
		}
		engineSimSeconds += r.simSeconds
		if r.kind == kindCold {
			var rep metrics.RunReport
			if err := json.Unmarshal(traced.res[i].res.Body, &rep); err != nil {
				return fmt.Errorf("cold report %d: %w", i, err)
			}
			counts.add(rep)
		}
	}
	counts.fill(m, cpu, ratio(engineSimSeconds, counts.simSeconds))
	m["serve.http_cpu_frac"] = cpuShare(cpu, "http")

	hits, misses := float64(dt.CacheHits), float64(dt.CacheMisses)
	requests := float64(len(traced.res))
	m["serve.hit_frac"] = ratio(hits, requests)
	m["serve.engine_runs_per_miss"] = ratio(float64(dt.EngineRuns), misses)
	m["serve.shed_frac"] = ratio(float64(dt.Shed), requests)
	m["serve.evictions"] = float64(du.CacheEvictions)
	// Every memory-tier insertion is a cache write (one per engine run) or
	// a disk hit being promoted; each either grows the tier or evicts.
	diskHits := float64(du.CacheEvictions) + float64(int64(du.CacheEntries)) - float64(du.EngineRuns)
	m["serve.disk_hit_frac"] = ratio(diskHits, float64(du.CacheHits))

	// Spans around the benchmark's own calls into the served path.
	var engines, encodes []float64
	var allocs, bytesAlloc uint64
	var spanSimSeconds float64
	var ms [2]runtime.MemStats
	n := 0
	for i, r := range untraced.reqs {
		if r.kind != kindCold || n == 9 {
			continue
		}
		n++
		runtime.ReadMemStats(&ms[0])
		engine, encode := untraced.directCheck(i, out, "direct-span")
		runtime.ReadMemStats(&ms[1])
		allocs += ms[1].Mallocs - ms[0].Mallocs
		bytesAlloc += ms[1].TotalAlloc - ms[0].TotalAlloc
		spanSimSeconds += r.simSeconds
		engines = append(engines, float64(engine)/1e6)
		encodes = append(encodes, float64(encode)/1e6)
	}
	m["serve.engine_ms"] = median(engines)
	m["serve.encode_ms"] = median(encodes)
	m["sim.allocs_per_sim_s"] = ratio(float64(allocs), spanSimSeconds)
	m["sim.bytes_per_sim_s"] = ratio(float64(bytesAlloc), spanSimSeconds)

	if i := untraced.firstOf(kindSweep); i >= 0 {
		sdir, err := scratchDir(o, "sweep-direct")
		if err != nil {
			return err
		}
		body, wall, err := directSweep(untraced.reqs[i], sdir)
		out.attempted++
		if err != nil || !bytes.Equal(body, untraced.res[i].res.Body) {
			out.fail("sweep request %d: served bytes differ from a direct RunCells (err=%v)", i, err)
		}
		m["experiments.cell_ms"] = float64(wall) / 1e6 / float64(len(sweepSchemes))
	}

	cdir, err := scratchDir(o, "cache-spans")
	if err != nil {
		return err
	}
	get, diskGet, put, err := cacheSpans(cdir, untraced.baseBody)
	if err != nil {
		return err
	}
	m["serve.cache_get_us"], m["serve.cache_disk_get_us"], m["serve.cache_put_us"] = get, diskGet, put
	m["serve.overhead_ms"] = m["client.cold_p50_ms"] - m["serve.engine_ms"] - m["serve.encode_ms"] - put/1000

	if m["observers.on_off_ratio"], err = observerRatio(runScenario(o.seed, 2, 0), 5); err != nil {
		return err
	}
	out.notes = append(out.notes, cpuNote(cpu))
	return nil
}

// cacheSpans times the result cache directly with the daemon's caps over
// the base set's real bytes: median Put, memory-tier Get, and disk-tier Get
// (cycling through more keys than the memory tier holds, so every Get is a
// promotion — confirmed by the eviction it causes).
func cacheSpans(dir string, bodies [][]byte) (get, diskGet, put float64, err error) {
	c, err := serve.NewCache(dir, serveCacheBytes, 1024)
	if err != nil {
		return 0, 0, 0, err
	}
	key := func(k int) string {
		sum := sha256.Sum256([]byte(strconv.Itoa(k)))
		return hex.EncodeToString(sum[:])
	}
	us := func(start time.Time) float64 { return float64(time.Since(start)) / 1e3 }
	var puts, gets, disks []float64
	for k, b := range bodies {
		start := time.Now()
		c.Put(key(k), b)
		puts = append(puts, us(start))
	}
	last := key(len(bodies) - 1)
	for i := 0; i < 200; i++ {
		start := time.Now()
		_, ok := c.Get(last)
		gets = append(gets, us(start))
		if !ok {
			return 0, 0, 0, errors.New("cache spans: memory entry missing")
		}
	}
	for round := 0; round < 2; round++ {
		for k := range bodies {
			ev := c.Evictions()
			start := time.Now()
			data, ok := c.Get(key(k))
			d := us(start)
			if !ok || !bytes.Equal(data, bodies[k]) {
				return 0, 0, 0, errors.New("cache spans: disk entry missing or altered")
			}
			if c.Evictions() > ev {
				disks = append(disks, d)
			}
		}
	}
	return median(gets), median(disks), median(puts), nil
}

// cpuNote formats the profile's CPU shares by layer, largest first.
func cpuNote(cpu map[string]int64) string {
	type kv struct {
		layer string
		ns    int64
	}
	var xs []kv
	for l, ns := range cpu {
		xs = append(xs, kv{l, ns})
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].ns > xs[j].ns || (xs[i].ns == xs[j].ns && xs[i].layer < xs[j].layer) })
	var b strings.Builder
	b.WriteString("cpu_by_layer")
	for _, x := range xs {
		fmt.Fprintf(&b, " %s=%.3f", x.layer, cpuShare(cpu, x.layer))
	}
	return b.String()
}
