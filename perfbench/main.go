// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-clock budget, checks that every output
// is correct, and prints one JSON object as the last line of standard
// output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// profiler attached. With -trace 1 an untraced pass of half the budget is
// followed by a replay of the same operations under the runtime/pprof CPU
// profiler, and the metrics are the per-layer ones. See README.md for the
// workloads, the metric catalogue and how each layer metric maps to an
// end-to-end one.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload largen-static --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options is one invocation's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	daemon   string // meshsimd binary (serve-mixed only)
	workdir  string // scratch directory for cache dirs and checkpoints
}

// passBudget is how long the untraced pass measures. With -trace 1 the
// profiled pass replays exactly the operations of the untraced one, so
// each gets half the budget.
func (o options) passBudget() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

// outcome is what a workload hands back to main: operation counts, any
// correctness-gate failures, and the metric values by name.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	notes     []string // informational lines printed before the result
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"largen-static": func(o options) (*outcome, error) { return runSim(largenStatic, o) },
	"churn-mobile":  func(o options) (*outcome, error) { return runSim(churnMobile, o) },
	"serve-mixed":   runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: largen-static, churn-mobile or serve-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every scenario seed and request is derived from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured wall-clock seconds (split between the two passes with -trace 1)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra profiled pass")
	flag.StringVar(&o.daemon, "daemon", "", "path of the meshsimd binary (serve-mixed)")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory (created; removed on exit)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	res, lines, err := measure(o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Println(string(line))
	return nil
}

// measure runs one invocation and returns its result plus the
// informational and correctness lines printed ahead of it.
func measure(o options) (result, []string, error) {
	runner, ok := workloads[o.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return result{}, nil, errors.New("-seconds must be positive")
	}
	if o.workdir == "" {
		return result{}, nil, errors.New("-workdir is required")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(o.workdir)
	out, err := runner(o)
	if err != nil {
		return result{}, nil, err
	}
	res, err := buildResult(o, out)
	lines := append(out.notes, fmt.Sprintf("failed_frac=%g", ratio(float64(out.failed), float64(out.attempted))))
	for _, p := range out.problems {
		lines = append(lines, "correctness: "+p)
	}
	return res, lines, err
}

// buildResult selects the metric set the trace mode promises and attaches
// units. A missing metric is a bug in the workload, not a measurement.
func buildResult(o options, out *outcome) (result, error) {
	set := endToEnd
	if o.trace {
		set = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		v, ok := out.metrics[m.name]
		if !o.trace && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			return res, fmt.Errorf("workload %s measured %s = %v", o.workload, m.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over a layer this workload does not exercise
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// scratchDir returns a fresh subdirectory of the invocation's workdir.
func scratchDir(o options, name string) (string, error) {
	dir := filepath.Join(o.workdir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer with no work to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives an independent 64-bit value from a seed and a stream label
// (SplitMix64 finaliser over their combination), so every scenario seed
// and request choice is a pure function of the workload seed.
func mix(seed uint64, labels ...uint64) uint64 {
	z := seed
	for _, l := range labels {
		z += 0x9e3779b97f4a7c15 + l*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// vmHWM reads a process's peak resident set size in MiB from /proc.
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
