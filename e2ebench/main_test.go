package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"easydram/internal/experiments"
	"easydram/internal/smc"
	"easydram/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// --trace 0 run re-executes itself as a set-up probe.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestInputsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2, 12345} {
			a, b := w.inputs(seed), w.inputs(seed)
			if fmt.Sprint(summarize(a)) != fmt.Sprint(summarize(b)) {
				t.Errorf("%s seed %d: inputs differ between two builds", w.name, seed)
			}
			for i := range a.kernels {
				if ha, hb := opsHash(a.kernels[i]), opsHash(b.kernels[i]); ha != hb {
					t.Errorf("%s seed %d: kernel %s streams differ", w.name, seed, a.kernels[i].Name)
				}
			}
		}
	}
	// The seed picks the characterized region, which spans every bank.
	a, b := characterizeInputs(1), characterizeInputs(2)
	if a.start == b.start {
		t.Errorf("seeds 1 and 2 picked the same region %#x", a.start)
	}
	if a.end-a.start != b.end-b.start {
		t.Errorf("region sizes differ: %d vs %d", a.end-a.start, b.end-b.start)
	}
}

func summarize(in inputs) []string {
	s := []string{fmt.Sprint(in.seed, in.cores, in.scheds, in.start, in.end)}
	for _, k := range in.kernels {
		s = append(s, k.Name)
	}
	for _, m := range in.mixes {
		s = append(s, m.Name)
	}
	return s
}

// opsHash digests the first ops of a kernel's stream.
func opsHash(k workload.Kernel) string {
	s := k.Stream()
	defer s.Close()
	var op workload.Op
	var b strings.Builder
	for i := 0; i < 5000 && s.Next(&op); i++ {
		fmt.Fprint(&b, op)
	}
	return digestValue(b.String())
}

func TestDigestCheckFailsOnPerturbedResult(t *testing.T) {
	w, err := lookupWorkload("characterize")
	if err != nil {
		t.Fatal(err)
	}
	want, ok := recorded(w, defaultSeed)
	if !ok {
		t.Fatal("no recorded digest for characterize at the default seed")
	}
	out, err := w.pass(w.inputs(defaultSeed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad := diffRecords(out.records, want); len(bad) != 0 {
		t.Fatalf("unperturbed pass differs from the recorded digest: %v", bad)
	}
	for i, r := range out.records {
		perturbed := append([]record(nil), out.records...)
		perturbed[i].Value = r.Value + " "
		ck := &checker{want: want, log: &bytes.Buffer{}}
		ck.check("perturbed", passOut{records: perturbed}, nil)
		if ck.failed != 1 || ck.result(nil).Correct {
			t.Errorf("perturbing %s: failed=%d, want 1 and an incorrect result", r.Name, ck.failed)
		}
	}
	ck := &checker{want: want, log: &bytes.Buffer{}}
	ck.check("missing", passOut{records: out.records[1:]}, nil)
	if ck.failed != 1 {
		t.Errorf("dropping a record: failed=%d, want 1", ck.failed)
	}
}

// benchmarkDecl is BENCHMARK.json.
type benchmarkDecl struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readDecl(t *testing.T) benchmarkDecl {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkDecl
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPrintedMetricsDeclared runs the benchmark briefly in both modes and
// checks that the last line names exactly the declared metrics, each with
// its declared unit, and that every declaration has a direction.
func TestPrintedMetricsDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	d := readDecl(t)
	for trace, decl := range [][]declMetric{d.EndToEnd, d.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "characterize", "--seconds", "1",
			"--trace", fmt.Sprint(trace), "--spans", filepath.Join(t.TempDir(), "spans.json")}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		declared := map[string]declMetric{}
		for _, m := range decl {
			declared[m.Name] = m
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("trace %d: declared metric %s not printed", trace, m.Name)
			}
		}
		for name, m := range res.Metrics {
			dm, ok := declared[name]
			if !ok {
				t.Errorf("trace %d: printed metric %s is not declared", trace, name)
			} else if dm.Unit != m.Unit || m.Unit == "" {
				t.Errorf("trace %d: %s printed in %q, declared in %q", trace, name, m.Unit, dm.Unit)
			}
		}
	}
}

// TestTracedOutputsEqualUntraced checks the wrappers are transparent: a
// traced pass reproduces the untraced records exactly on every workload
// (validation at the Tiny size class).
func TestTracedOutputsEqualUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		in := w.inputs(3)
		if w.name == "validation" {
			in.kernels = workload.ValidationSuite(workload.Tiny)
		}
		plain, err := w.pass(in, nil)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		tr := newTracer()
		traced, err := w.pass(in, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !reflect.DeepEqual(plain.records, traced.records) {
			t.Errorf("%s: traced records differ from untraced", w.name)
		}
		if tr.pick.calls.Load() == 0 {
			t.Errorf("%s: the scheduler wrapper saw no picks", w.name)
		}
	}
}

// TestPassesMatchExperimentsRunners pins the benchmark's own loops to the
// experiments runners they mirror.
func TestPassesMatchExperimentsRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the validation and fairness runners")
	}
	opt := experiments.Quick()
	opt.Workers = 1
	v, err := experiments.Validation(opt)
	if err != nil {
		t.Fatal(err)
	}
	in := validationInputs(opt.Seed)
	in.kernels = append(workload.ValidationSuite(opt.KernelSize), workload.LatMemRd(1<<20, opt.LatAccesses))
	out, err := validationPass(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := digest(out.records)
	for i, name := range v.Names {
		if s := got[name+"/scaled"]; !strings.HasPrefix(s, fmt.Sprintf("cycles=%d ", v.TSCycles[i])) {
			t.Errorf("%s scaled: benchmark %q, runner %d cycles", name, s, v.TSCycles[i])
		}
		if s := got[name+"/reference"]; !strings.HasPrefix(s, fmt.Sprintf("cycles=%d ", v.RefCycles[i])) {
			t.Errorf("%s reference: benchmark %q, runner %d cycles", name, s, v.RefCycles[i])
		}
	}

	opt = experiments.Default()
	opt.Workers = 1
	f, err := experiments.FairnessSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	cout, err := contentionPass(contentionInputs(opt.Seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	got = digest(cout.records)
	for _, c := range f.Cells {
		key := fmt.Sprintf("%s/%s/%d/slowdowns", c.Scheduler, c.Mix, c.Cores)
		if want := fmt.Sprintf("%.9f", c.Slowdowns); got[key] != want {
			t.Errorf("%s: benchmark %s, runner %s", key, got[key], want)
		}
	}
}

type plainScheduler struct{}

func (plainScheduler) Name() string                    { return "plain" }
func (plainScheduler) Pick(_ []smc.Entry, _ []int) int { return 0 }

// TestSchedulerWrapperForwards checks every optional interface the engine
// probes answers the same on the wrapper as on the wrapped scheduler, with
// stateless built-ins offering CloneForChannel in place of smc.Stateless.
func TestSchedulerWrapperForwards(t *testing.T) {
	type truncater interface{ NoteBurstServed(int) }
	for _, s := range []smc.Scheduler{smc.FCFS{}, smc.FRFCFS{}, smc.NewBLISS(), plainScheduler{}} {
		w := wrapScheduler(s, &seamStats{})
		_, b1 := s.(smc.BurstScheduler)
		_, b2 := w.(smc.BurstScheduler)
		_, c1 := s.(smc.ChannelScheduler)
		_, c2 := w.(smc.ChannelScheduler)
		_, s1 := s.(smc.StatefulScheduler)
		_, s2 := w.(smc.StatefulScheduler)
		_, t1 := s.(truncater)
		_, t2 := w.(truncater)
		if b1 != b2 || (c1 || smc.Stateless(s)) != c2 || s1 != s2 || (t1 && !t2) || (t2 && !b1) {
			t.Errorf("%s: burst %v/%v channel %v/%v stateful %v/%v truncater %v/%v",
				s.Name(), b1, b2, c1, c2, s1, s2, t1, t2)
		}
		if w.Name() != s.Name() {
			t.Errorf("wrapper renames %s to %s", s.Name(), w.Name())
		}
		if c2 {
			clone := w.(smc.ChannelScheduler).CloneForChannel()
			if reflect.TypeOf(clone) != reflect.TypeOf(w) {
				t.Errorf("%s: clone is %T, wrapper %T", s.Name(), clone, w)
			}
		}
	}
}
