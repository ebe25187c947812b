package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueMatchesBenchmarkJSON keeps the metric lists the program
// prints identical to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the program runs %d workloads", names, len(workloads))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
			t.Errorf("bad or duplicate metric %q (unit %q)", m.name, m.unit)
		}
		seen[m.name] = true
	}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or duplicate workload name %q", n)
		}
		seen[n] = true
	}
}

// buildDaemon compiles meshsimd for the serve-mixed tests.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "meshsimd")
	cmd := exec.Command("go", "build", "-o", bin, "clnlr/cmd/meshsimd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building meshsimd: %v\n%s", err, out)
	}
	return bin
}

// TestMinimalRunsEmitEveryMetric runs each workload for a minimal budget
// in both modes: the result must be correct and carry every metric of the
// mode with its unit, end-to-end metrics strictly positive.
func TestMinimalRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	daemon := buildDaemon(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.2, trace: trace, daemon: daemon, workdir: t.TempDir()}
			res, lines, err := measure(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, strings.Join(lines, "\n"))
			}
			set := endToEnd
			if trace {
				set = perLayer
			}
			if len(res.Metrics) != len(set) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(set))
			}
			for _, m := range set {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || (!trace && got.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, m.name, got)
				}
			}
		}
	}
}

// TestGateTripsOnCorruptedServedBytes runs a short served pass, checks it
// passes the gate, then corrupts one hit body and one cold-run body: each
// must be counted as a failure.
func TestGateTripsOnCorruptedServedBytes(t *testing.T) {
	srv, err := startInProcess(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := runServePass(srv.addr, 3, 0, serveBlock)
	if err := errors.Join(err, srv.stop()); err != nil {
		t.Fatal(err)
	}
	var out outcome
	p.checkServed(&out, "clean")
	p.statsCheck(&out, "clean")
	hit, cold := p.firstOf(kindHit), p.firstOf(kindCold)
	p.directCheck(cold, &out, "clean")
	if out.failed != 0 {
		t.Fatalf("clean pass failed the gate: %v", out.problems)
	}
	p.res[hit].res.Body = flipByte(p.res[hit].res.Body)
	p.checkServed(&out, "corrupted")
	if out.failed != 1 {
		t.Fatalf("corrupted hit: %d failures (%v), want 1", out.failed, out.problems)
	}
	p.res[cold].res.Body = flipByte(p.res[cold].res.Body)
	p.directCheck(cold, &out, "corrupted")
	if out.failed != 2 {
		t.Fatalf("corrupted cold run: %d failures (%v), want 2", out.failed, out.problems)
	}
}

// TestDriveIssuesWholeBlocks checks that a budgeted pass stops at a block
// boundary with no gap in the request indices, so every pass carries the
// sequence's exact mix.
func TestDriveIssuesWholeBlocks(t *testing.T) {
	srv, err := startInProcess(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := runServePass(srv.addr, 4, 300*time.Millisecond, 0)
	if err := errors.Join(err, srv.stop()); err != nil {
		t.Fatal(err)
	}
	if len(p.res) == 0 || len(p.res)%serveBlock != 0 {
		t.Fatalf("%d requests issued, want a positive multiple of %d", len(p.res), serveBlock)
	}
	var out outcome
	p.checkServed(&out, "budgeted")
	p.statsCheck(&out, "budgeted")
	if out.failed != 0 {
		t.Fatalf("budgeted pass failed the gate: %v", out.problems)
	}
	if hits, want := len(p.latencies(kindHit)), len(p.res)/serveBlock*serveHits; hits != want {
		t.Errorf("%d hits, want %d", hits, want)
	}
}

// TestGateTripsOnCorruptedReport does the same for the sim workloads: a
// replication's report altered after the fact no longer matches its
// fresh-engine replay, and the results digest moves.
func TestGateTripsOnCorruptedReport(t *testing.T) {
	p := churnMobile.pass(5, 0, digestReps, false)
	var out outcome
	p.check(&out, "clean")
	churnMobile.replayCheck(5, p, &out)
	if out.failed != 0 {
		t.Fatalf("clean pass failed the gate: %v", out.problems)
	}
	digest := p.resultsDigest()
	idx := 1 + int(5%uint64(digestReps-1))
	p.recs[idx].stripped = flipByte(p.recs[idx].stripped)
	churnMobile.replayCheck(5, p, &out)
	if out.failed != 1 {
		t.Fatalf("corrupted report: %d failures, want 1", out.failed)
	}
	if p.resultsDigest() == digest {
		t.Fatal("results digest ignored a corrupted report")
	}
}

// TestLayerAttribution pins the attribution rules on synthetic stacks.
func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"clnlr/internal/radio.(*Medium).arrivalEnd", "clnlr/internal/des.(*Sim).RunUntil"}, "radio"},
		{[]string{"clnlr/internal/routing/aodv.(*Policy).OnRREQ", "clnlr/internal/mac.(*Mac).RadioReceive"}, "routing"},
		{[]string{"clnlr/internal/routing.(*DupCache).Len", "clnlr/internal/sim.(*sampler).HandleEvent"}, "observers"},
		{[]string{"clnlr/internal/metrics.(*Registry).Map", "clnlr/internal/sim.BuildReport"}, "encode"},
		{[]string{"runtime.mallocgc", "clnlr/internal/sim.(*sampler).HandleEvent"}, "runtime"},
		{[]string{"internal/poll.(*FD).Write", "net/http.(*conn).serve"}, "http"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write"}, "http"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.rename", "os.Rename", "clnlr/internal/serve.(*Cache).diskPut"}, "serve"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "runtime"},
		{[]string{"internal/runtime/syscall.Syscall6", "runtime.netpoll", "runtime.findRunnable"}, "runtime"},
		{[]string{"runtime.duffcopy", "clnlr/internal/routing.(*DupCache).Len", "clnlr/internal/sim.(*sampler).HandleEvent"}, "observers"},
		{[]string{"runtime.memmove", "clnlr/internal/radio.(*Medium).arrivalStart"}, "radio"},
		{[]string{"clnlr/internal/node.ResetNetwork"}, "sim"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCPUProfileParses profiles real engine work and checks the decoder
// finds the simulation stack in it.
func TestCPUProfileParses(t *testing.T) {
	cpu, err := cpuProfile(func() error {
		churnMobile.pass(9, 0, digestReps, false)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cpuShare(cpu, "radio") <= 0 || cpuShare(cpu, "des") <= 0 {
		t.Fatalf("no radio/des samples in %v", cpu)
	}
}

func flipByte(b []byte) []byte {
	c := bytes.Clone(b)
	c[len(c)/2] ^= 1
	return c
}
