// Command e2ebench measures the host cost of EasyDRAM's end-to-end
// evaluation flows and checks that their emulated outputs did not change.
//
// One run measures one workload for a fixed number of seconds:
//
//	e2ebench --workload validation --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics — set-up time, and the
// median per-pass wall time, CPU time, heap allocation and peak heap —
// with tracing off. With --trace 1 it alternates untraced and traced
// passes and reports the per-layer metrics: seam counts and times, the
// program's own counters, single-layer replay costs, the layer ledger and
// the tracing overhead; the traced spans are written as JSON under
// .bench_build/e2ebench. Every pass's emulated outputs are compared with
// the recorded digest (golden.json); --record regenerates that file.
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupProbes is how many fresh processes set-up time is measured in; the
// median is reported.
const setupProbes = 5

// minPasses is the fewest timed passes a run makes, whatever --seconds.
const minPasses = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "validation", "workload to run: validation, contention or characterize")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "seconds of timed passes")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced passes")
	spans := fs.String("spans", "", "traced span output (default .bench_build/e2ebench/spans-<workload>-<seed>.json)")
	probe := fs.Bool("setup-probe", false, "set up the workload, then exit (set-up time is measured in such child processes)")
	record := fs.String("record", "", "write the recorded digests of every workload for seeds 1 and 2 to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordGolden(*record); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || *traceFlag < 0 || *traceFlag > 1) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if *probe {
		if want, _, err := setup(w, *seed); want == nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "e2ebench", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traceFlag == 0 {
		res, err = measure(w, *seed, budget, stderr)
	} else {
		res, err = measureTraced(w, *seed, budget, *spans, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker compares each pass's records with the reference and tallies
// attempted and failed records.
type checker struct {
	want      map[string]string
	attempted int
	failed    int
	log       io.Writer
}

func (c *checker) check(label string, out passOut, passErr error) {
	bad := diffRecords(out.records, c.want)
	if passErr != nil {
		fmt.Fprintf(c.log, "e2ebench: %s: %v\n", label, passErr)
	}
	for _, n := range bad {
		fmt.Fprintf(c.log, "e2ebench: %s: record %s differs from the reference\n", label, n)
	}
	c.attempted += len(c.want)
	c.failed += len(bad)
}

func (c *checker) result(m map[string]metric) result {
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// setup builds the seed's inputs and runs one untimed pass. It returns
// the reference every pass is checked against — the recorded digest, or
// for a seed without one the set-up pass's own records — with the set-up
// pass and its error. The reference is nil only when an unrecorded seed's
// set-up pass failed, leaving nothing to check against.
func setup(w workloadDef, seed uint64) (map[string]string, passOut, error) {
	out, err := w.pass(w.inputs(seed), nil)
	if err != nil {
		err = fmt.Errorf("%s set-up pass: %w", w.name, err)
	}
	if want, ok := recorded(w, seed); ok {
		return want, out, err
	}
	if err != nil {
		return nil, out, err
	}
	return digest(out.records), out, nil
}

// start sets up w at seed and returns a checker that has already checked
// the set-up pass.
func start(w workloadDef, seed uint64, log io.Writer) (*checker, error) {
	want, out, err := setup(w, seed)
	if want == nil {
		return nil, err
	}
	ck := &checker{want: want, log: log}
	ck.check("set-up pass", out, err)
	return ck, nil
}

// measureSetup runs setupProbes fresh processes that only set up, and
// returns the median of their lifetimes — process start to ready to time,
// including one-time init and anything the first pass fills lazily — and
// the calibration times taken before each.
func measureSetup(w workloadDef, seed uint64, log io.Writer) (float64, []float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	var times, cals []float64
	for i := 0; i < setupProbes; i++ {
		cals = append(cals, calibrate())
		cmd := exec.Command(exe, "--setup-probe", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stdout, cmd.Stderr = log, log
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, nil, fmt.Errorf("set-up probe: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), cals, nil
}

// sample is one timed pass and the calibration time taken just before it.
type sample struct {
	wall, cpu, allocMiB, peakMiB, cal float64
}

// timedPass runs one pass from a collected heap, measuring wall time,
// process CPU time (the generator goroutines included), bytes allocated
// and the peak live heap. With calib set, the calibration load
// is timed first.
func timedPass(w workloadDef, in inputs, t *tracer, calib bool) (sample, passOut, error) {
	var calS float64
	if calib {
		calS = calibrate()
	}
	runtime.GC()
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(alloc)
	stop := make(chan struct{})
	peak := make(chan uint64)
	go samplePeak(stop, peak)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out, err := w.pass(in, t)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	close(stop)
	p := <-peak
	a0 := alloc[0].Value.Uint64()
	metrics.Read(alloc)
	return sample{
		wall:     wall,
		cpu:      cpu,
		allocMiB: float64(alloc[0].Value.Uint64()-a0) / (1 << 20),
		peakMiB:  float64(p) / (1 << 20),
		cal:      calS,
	}, out, err
}

// samplePeak polls the live heap — as the most recent GC cycle marked it —
// every 5 ms until stop closes, then sends the maximum seen.
func samplePeak(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var max uint64
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > max {
			max = v
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-tick.C:
		}
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// measure is the --trace 0 run: set-up time from fresh processes, then
// untraced passes for the budget, reporting per-pass medians.
func measure(w workloadDef, seed uint64, budget time.Duration, log io.Writer) (result, error) {
	setupS, cals, err := measureSetup(w, seed, log)
	if err != nil {
		return result{}, err
	}
	ck, err := start(w, seed, log)
	if err != nil {
		return result{}, err
	}
	in := w.inputs(seed)
	var samples []sample
	deadline := time.Now().Add(budget)
	for len(samples) < minPasses || time.Now().Before(deadline) {
		s, out, err := timedPass(w, in, nil, true)
		cals = append(cals, s.cal)
		ck.check(fmt.Sprintf("pass %d", len(samples)), out, err)
		samples = append(samples, s)
	}
	col := func(f func(sample) float64) []float64 {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = f(s)
		}
		return v
	}
	walls := col(func(s sample) float64 { return s.wall })
	cpus := col(func(s sample) float64 { return s.cpu })
	scale := calibRefS / median(cals)
	vals := map[string]float64{
		"setup_s":       setupS * scale,
		"wall_s":        median(walls) * scale,
		"cpu_s":         median(cpus) * scale,
		"alloc_mib":     median(col(func(s sample) float64 { return s.allocMiB })),
		"heap_peak_mib": median(col(func(s sample) float64 { return s.peakMiB })),
	}
	fmt.Fprintf(log, "e2ebench: %s seed %d: %d passes; raw setup_s %.4f, wall_s %.4f, cpu_s %.4f; calibration %.4f s\n",
		w.name, seed, len(samples), setupS, walls, median(cpus), cals)
	return ck.result(withUnits(vals, endToEndUnits)), nil
}

// measureTraced is the --trace 1 run: untraced and traced passes
// alternate for the budget; the per-layer metrics are medians over the
// traced passes, and the tracing overhead compares the two kinds of pass.
func measureTraced(w workloadDef, seed uint64, budget time.Duration, spansPath string, log io.Writer) (result, error) {
	ck, err := start(w, seed, log)
	if err != nil {
		return result{}, err
	}
	in := w.inputs(seed)
	t := newTracer()
	var plain, traced []float64
	perLayer := map[string][]float64{}
	deadline := time.Now().Add(budget)
	for len(traced) < minPasses || time.Now().Before(deadline) {
		s, out, err := timedPass(w, in, nil, false)
		ck.check(fmt.Sprintf("untraced pass %d", len(plain)), out, err)
		plain = append(plain, s.wall)

		t.startPass(len(traced))
		root := t.begin("pass")
		s, out, err = timedPass(w, in, t, false)
		t.end(root)
		// A traced pass must reproduce the untraced outputs exactly.
		ck.check(fmt.Sprintf("traced pass %d", len(traced)), out, err)
		m := t.passMetrics(out, s.wall)
		traced = append(traced, m["pass.traced_wall_s"])
		for k, v := range m {
			perLayer[k] = append(perLayer[k], v)
		}
	}
	vals := map[string]float64{}
	for k := range layerUnits {
		vals[k] = median(perLayer[k])
	}
	vals["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	if err := writeSpans(spansPath, t.spans); err != nil {
		fmt.Fprintln(log, "e2ebench: writing spans:", err)
	}
	fmt.Fprintf(log, "e2ebench: %s seed %d: %d untraced and %d traced passes, spans in %s\n",
		w.name, seed, len(plain), len(traced), spansPath)
	return ck.result(withUnits(vals, layerUnits)), nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func withUnits(vals map[string]float64, units map[string]string) map[string]metric {
	m := make(map[string]metric, len(vals))
	for k, v := range vals {
		m[k] = metric{Value: v, Unit: units[k]}
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Recorded digests.

//go:embed golden.json
var goldenJSON []byte

// golden maps workload → seed → record name → digest value.
type golden map[string]map[string]map[string]string

// recorded returns the recorded digest a pass of w at seed must match.
// Seed-independent workloads match the default seed's digest at any seed.
func recorded(w workloadDef, seed uint64) (map[string]string, bool) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err)) // embedded at build time
	}
	if d, ok := g[w.name][strconv.FormatUint(seed, 10)]; ok {
		return d, true
	}
	if w.seedIndependent {
		d, ok := g[w.name][strconv.FormatUint(defaultSeed, 10)]
		return d, ok
	}
	return nil, false
}

// defaultSeed and heldOutSeed are the seeds with recorded digests; the
// held-out seed was not used while the benchmark was tuned.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// digestValue is how a record is stored: short values as they are, long
// ones (weak-row sets, the tRCD grid) as a 64-bit FNV-1a hash.
func digestValue(v string) string {
	if len(v) <= 160 {
		return v
	}
	h := fnv.New64a()
	h.Write([]byte(v))
	return fmt.Sprintf("fnv64:%016x", h.Sum64())
}

func digest(recs []record) map[string]string {
	d := make(map[string]string, len(recs))
	for _, r := range recs {
		d[r.Name] = digestValue(r.Value)
	}
	return d
}

// diffRecords lists, sorted, every record name whose value differs from
// want or that is missing on either side.
func diffRecords(got []record, want map[string]string) []string {
	var bad []string
	seen := map[string]bool{}
	for _, r := range got {
		seen[r.Name] = true
		if w, ok := want[r.Name]; !ok || w != digestValue(r.Value) {
			bad = append(bad, r.Name)
		}
	}
	for n := range want {
		if !seen[n] {
			bad = append(bad, n)
		}
	}
	sort.Strings(bad)
	return bad
}

// recordGolden runs one pass of every workload at the default and the
// held-out seed and writes their digests to path.
func recordGolden(path string) error {
	g := golden{}
	for _, w := range workloads {
		g[w.name] = map[string]map[string]string{}
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			out, err := w.pass(w.inputs(seed), nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			g[w.name][strconv.FormatUint(seed, 10)] = digest(out.records)
		}
		if w.seedIndependent {
			a, b := g[w.name]["1"], g[w.name]["2"]
			if len(a) != len(b) {
				return fmt.Errorf("%s: outputs depend on the seed", w.name)
			}
			for k, v := range a {
				if b[k] != v {
					return fmt.Errorf("%s: record %s depends on the seed", w.name, k)
				}
			}
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
