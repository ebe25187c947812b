package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/metrics"
	"clnlr/internal/sim"
)

// simWorkload is an engine-only workload: a base scenario whose
// replication r runs scheme sim.AllSchemes()[r mod 5] with a seed derived
// from the workload seed, all on one warm sim.Engine in one goroutine.
// No workload sets an implementation-selecting Scenario field
// (LegacyRadio, ReferenceRadio, ReferenceQueue, Audit): results are
// bit-identical across them, and they are slated to leave Scenario.
type simWorkload struct {
	name string
	base func() sim.Scenario
}

// Warm-up is zero in both workloads so the RunReport counters cover the
// whole run, the same window the CPU profile covers; per-layer ns/op
// figures divide one by the other.

// largenStatic is radio-bound: a 225-node static grid where the memoised
// audible sets are built once and reused by every transmission.
var largenStatic = simWorkload{name: "largen-static", base: func() sim.Scenario {
	sc := sim.DefaultScenario()
	sc.Name = "largen-static"
	sc.Rows, sc.Cols = 15, 15
	sc.AreaM = 15 * (1000.0 / 7) // Table R-1 spacing
	sc.Flows = 20
	sc.SessionTime = 10 * des.Second
	sc.Warmup = 0
	sc.Measure = 10 * des.Second
	return sc
}}

// churnMobile shifts CPU from the radio to DES, MAC and routing: mobility
// breaks routes (RERRs, rediscovery floods) and churn crashes nodes, while
// every move invalidates the audible-set memo. Traffic is 40 flows at
// 6 pkt/s: the default 10 flows at 4 pkt/s left the radio at ≈0.58 of
// CPU, and DES + MAC + routing stopped growing at about this load (more
// flows, higher rates, longer downtimes, longer routes, a gateway sink,
// Poisson arrivals and RTS/CTS all left it at ≈0.46–0.56).
var churnMobile = simWorkload{name: "churn-mobile", base: func() sim.Scenario {
	sc := sim.DefaultScenario()
	sc.Name = "churn-mobile"
	sc.MobilitySpeed = 10
	sc.Flows = 40
	sc.PacketRate = 6
	sc.Faults.MeanUpTime = 30 * des.Second
	sc.Faults.MeanDownTime = 5 * des.Second
	sc.SessionTime = 3 * des.Second
	sc.Warmup = 0
	sc.Measure = 30 * des.Second
	return sc
}}

// digestReps is how many leading replications results_digest covers: one
// full scheme rotation, run by every pass whatever its length.
const digestReps = 5

func (w simWorkload) scenario(seed uint64, rep int) sim.Scenario {
	sc := w.base()
	schemes := sim.AllSchemes()
	sc.Scheme = schemes[rep%len(schemes)]
	sc.Seed = mix(seed, 1, uint64(rep))
	return sc
}

// repRecord is one replication: its engine wall time and its canonical
// report, with and without the diagnostics section (diagnostics depend on
// what a warm engine carried over, so only same-history runs share them).
type repRecord struct {
	wall     time.Duration
	report   metrics.RunReport
	full     []byte
	stripped []byte
	err      error
}

type simPass struct {
	recs       []repRecord
	runWall    time.Duration // summed Engine.RunObserved spans
	simSeconds float64
	allocs     uint64 // heap allocations inside the spans (when counted)
	bytes      uint64
}

// runRep runs one replication with a counters-only collector (no sampler
// events, one counter fold at run end) and encodes its canonical report.
func runRep(eng *sim.Engine, sc sim.Scenario, ms *[2]runtime.MemStats) repRecord {
	col := metrics.NewCollector(0)
	if ms != nil {
		runtime.ReadMemStats(&ms[0])
	}
	start := time.Now()
	res, err := eng.RunObserved(sc, nil, col)
	rec := repRecord{wall: time.Since(start), err: err}
	if ms != nil {
		runtime.ReadMemStats(&ms[1])
	}
	if err != nil {
		return rec
	}
	rec.report = sim.BuildReport(sc, res, col).Canonical()
	rec.full, rec.err = encodeReport(rec.report)
	stripped := rec.report
	stripped.Diagnostics = nil
	if rec.err == nil {
		rec.stripped, rec.err = encodeReport(stripped)
	}
	return rec
}

func encodeReport(rep metrics.RunReport) ([]byte, error) {
	var buf bytes.Buffer
	err := rep.WriteJSON(&buf)
	return buf.Bytes(), err
}

// pass runs replications 0, 1, 2, … on one fresh engine: until budget has
// elapsed (and at least digestReps ran) when reps is 0, else exactly reps.
func (w simWorkload) pass(seed uint64, budget time.Duration, reps int, countAllocs bool) simPass {
	var p simPass
	eng := sim.NewEngine()
	var ms *[2]runtime.MemStats
	if countAllocs {
		ms = new([2]runtime.MemStats)
	}
	start := time.Now()
	for r := 0; ; r++ {
		if reps > 0 && r >= reps {
			break
		}
		if reps == 0 && r >= digestReps && time.Since(start) >= budget {
			break
		}
		sc := w.scenario(seed, r)
		rec := runRep(eng, sc, ms)
		p.recs = append(p.recs, rec)
		p.runWall += rec.wall
		p.simSeconds += (sc.Warmup + sc.Measure).Seconds()
		if ms != nil {
			p.allocs += ms[1].Mallocs - ms[0].Mallocs
			p.bytes += ms[1].TotalAlloc - ms[0].TotalAlloc
		}
	}
	return p
}

// check counts engine errors as failed operations.
func (p simPass) check(out *outcome, label string) {
	for i, r := range p.recs {
		out.attempted++
		if r.err != nil {
			out.fail("%s replication %d: %v", label, i, r.err)
		}
	}
}

// resultsDigest is SHA-256 over the canonical reports (diagnostics
// excluded) of the first digestReps replications, in seed order: equal
// digests mean the simulated statistics did not move.
func (p simPass) resultsDigest() string {
	h := sha256.New()
	for _, r := range p.recs[:digestReps] {
		h.Write(r.stripped)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replayCheck reruns one warm replication on a fresh engine; the canonical
// report must match byte for byte.
func (w simWorkload) replayCheck(seed uint64, p simPass, out *outcome) {
	idx := 1 + int(seed%uint64(digestReps-1)) // always a warm (non-first) replication
	rec := runRep(sim.NewEngine(), w.scenario(seed, idx), nil)
	out.attempted++
	if rec.err != nil || !bytes.Equal(rec.stripped, p.recs[idx].stripped) {
		out.fail("replication %d on a fresh engine differs from its warm run (err=%v)", idx, rec.err)
	}
}

// coldBuild times a fresh engine building the scenario's network and
// running it for one nanosecond of simulated time — placement, connectivity
// check, stack construction and flow selection, with no traffic.
func coldBuild(sc sim.Scenario) (time.Duration, error) {
	sc.Measure = 1
	runtime.GC()
	start := time.Now()
	_, err := sim.NewEngine().Run(sc)
	return time.Since(start), err
}

// medianColdBuild repeats coldBuild and returns the median in seconds.
func medianColdBuild(sc sim.Scenario, n int) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		d, err := coldBuild(sc)
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

// observerRatio is the paired same-process cost of the observers: median
// wall of RunJourney with the 100 ms flight recorder and a journey recorder
// on every flow, over median wall of a plain run, alternating the two on
// one warm engine.
func observerRatio(sc sim.Scenario, pairs int) (float64, error) {
	eng := sim.NewEngine()
	if _, err := eng.Run(sc); err != nil { // warm the engine
		return 0, err
	}
	var off, on []float64
	for i := 0; i < pairs; i++ {
		for k := 0; k < 2; k++ {
			observed := (i+k)%2 == 1
			start := time.Now()
			var err error
			if observed {
				_, err = eng.RunJourney(sc, nil, metrics.NewCollector(recorderIvl), journey.NewRecorder(1, true))
			} else {
				_, err = eng.Run(sc)
			}
			d := time.Since(start).Seconds()
			if err != nil {
				return 0, err
			}
			if observed {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	return median(on) / median(off), nil
}

func runSim(w simWorkload, o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	// Set-up is timed first, in the fresh process a user's sweep starts
	// in, so it does not depend on what the measured pass left behind.
	build, err := medianColdBuild(w.scenario(o.seed, 0), coldBuilds)
	if err != nil {
		return nil, err
	}
	p := w.pass(o.seed, o.passBudget(), 0, o.trace)
	p.check(out, "untraced")
	w.replayCheck(o.seed, p, out)
	out.notes = append(out.notes,
		fmt.Sprintf("workload=%s seed=%d replications=%d", w.name, o.seed, len(p.recs)),
		fmt.Sprintf("results_digest=%s (first %d replications)", p.resultsDigest(), digestReps))
	if o.trace {
		out.metrics["sim.cold_build_ms"] = build * 1000
		err = w.perLayer(o, p, out)
	} else {
		out.metrics["setup_s"] = build
		err = p.endToEnd(out)
	}
	return out, err
}

// coldBuilds is how many fresh-engine builds setup_s and sim.cold_build_ms
// take the median of.
const coldBuilds = 21

func (p simPass) endToEnd(out *outcome) error {
	// Throughput and latency come from the median over scheme rotations
	// (digestReps consecutive replications, one per scheme), which
	// discounts a rotation slowed by another tenant of the host and weighs
	// every scheme equally.
	var rotations []float64
	for i := 0; i+digestReps <= len(p.recs); i += digestReps {
		var wall time.Duration
		for _, r := range p.recs[i : i+digestReps] {
			wall += r.wall
		}
		rotations = append(rotations, wall.Seconds())
	}
	rotation := median(rotations)
	rss, err := vmHWM("self")
	if err != nil {
		return err
	}
	m := out.metrics
	m["sim_s_per_wall_s"] = float64(digestReps) * p.simSeconds / float64(len(p.recs)) / rotation
	m["ops_per_s"] = float64(digestReps) / rotation
	m["p50_ms"] = rotation * 1000 / float64(digestReps)
	m["peak_rss_mb"] = rss
	return nil
}

func (w simWorkload) perLayer(o options, untraced simPass, out *outcome) error {
	var traced simPass
	cpu, err := cpuProfile(func() error {
		traced = w.pass(o.seed, 0, len(untraced.recs), false)
		return nil
	})
	if err != nil {
		return err
	}
	traced.check(out, "traced")
	// Tracing must not perturb results: same replications, same bytes,
	// diagnostics included (both passes start from a fresh engine).
	for i := range untraced.recs {
		if !bytes.Equal(untraced.recs[i].full, traced.recs[i].full) {
			out.fail("traced replication %d differs from untraced", i)
		}
	}
	var counts layerCounts
	for _, r := range untraced.recs {
		counts.add(r.report)
	}
	m := out.metrics
	counts.fill(m, cpu, 1)
	m["sim.allocs_per_sim_s"] = float64(untraced.allocs) / untraced.simSeconds
	m["sim.bytes_per_sim_s"] = float64(untraced.bytes) / untraced.simSeconds
	if m["observers.on_off_ratio"], err = observerRatio(w.scenario(o.seed, 0), 3); err != nil {
		return err
	}
	m["trace.overhead_ratio"] = traced.runWall.Seconds() / untraced.runWall.Seconds()
	out.notes = append(out.notes, cpuNote(cpu))
	return nil
}

// layerCounts sums the deterministic RunReport counters the per-layer
// metrics divide by.
type layerCounts struct {
	simSeconds float64
	counters   map[string]uint64
	events     uint64
	rebuilds   uint64
	pendingHW  uint64
}

func (c *layerCounts) add(rep metrics.RunReport) {
	if c.counters == nil {
		c.counters = map[string]uint64{}
	}
	c.simSeconds += rep.SimSeconds
	c.events += rep.EventsExecuted
	c.rebuilds += rep.Diagnostics["radio/audible-rebuilds"]
	for k, v := range rep.Counters {
		if k == "des/pending-hw" {
			c.pendingHW = max(c.pendingHW, v)
			continue
		}
		c.counters[k] += v
	}
}

// fill derives the per-layer metrics from the counts and the profile's
// CPU by layer. scale converts the counts to the profiled engine work when
// the counts cover only part of it (1 when they cover all of it).
func (c layerCounts) fill(m map[string]float64, cpu map[string]int64, scale float64) {
	n := func(name string) float64 { return float64(c.counters[name]) }
	nsPer := func(layer string, count float64) float64 {
		return ratio(float64(cpu[layer]), count*scale)
	}
	for _, l := range []string{"radio", "mac", "routing", "des", "sim", "runtime", "observers"} {
		m[l+".cpu_frac"] = cpuShare(cpu, l)
	}
	m["serve.http_cpu_frac"] = cpuShare(cpu, "http")

	tx := n("radio/transmissions")
	m["radio.ns_per_tx"] = nsPer("radio", tx)
	m["radio.tx_per_sim_s"] = ratio(tx, c.simSeconds)
	m["radio.deliveries_per_tx"] = ratio(n("radio/deliveries"), tx)
	m["radio.audible_rebuilds_per_sim_s"] = ratio(float64(c.rebuilds), c.simSeconds)

	frames := n("mac/tx-data") + n("mac/tx-broadcast") + n("mac/tx-ack") + n("mac/tx-rts") + n("mac/tx-cts")
	m["mac.ns_per_frame"] = nsPer("mac", frames)
	m["mac.frames_per_sim_s"] = ratio(frames, c.simSeconds)
	m["mac.retries_per_frame"] = ratio(n("mac/retries"), frames)
	m["mac.queue_drops_per_sim_s"] = ratio(n("mac/dropped-queue-full"), c.simSeconds)

	m["routing.ns_per_rx"] = nsPer("routing", n("mac/rx-delivered"))
	m["routing.rreq_rx_per_discovery"] = ratio(n("routing/rreq-received"), n("routing/discoveries-started"))
	m["routing.rreq_suppressed_frac"] = ratio(n("routing/rreq-suppressed"), n("routing/rreq-received"))
	m["routing.discovery_success_frac"] = ratio(n("routing/discoveries-succeeded"), n("routing/discoveries-started"))

	m["des.ns_per_event"] = nsPer("des", float64(c.events))
	m["des.events_per_sim_s"] = ratio(float64(c.events), c.simSeconds)
	m["des.pending_hw"] = float64(c.pendingHW)
}
