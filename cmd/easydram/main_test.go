package main

import (
	"os"
	"path/filepath"
	"testing"

	"easydram/internal/experiments"
)

func quickOpt() experiments.Options {
	opt := experiments.Quick()
	opt.Sizes = []int{32 << 10}
	opt.LatSizesKiB = []int{64}
	opt.HeatRows = 96
	return opt
}

func TestRunDispatch(t *testing.T) {
	for _, name := range []string{"table1", "fig2", "fig8", "fig10", "fig12", "disturb", "fairness"} {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := run(name, quickOpt()); err != nil {
				t.Fatalf("run(%q): %v", name, err)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", quickOpt()); err == nil {
		t.Fatalf("unknown experiment must error")
	}
}

// TestRunWithFaultFlags exercises the -faults/-mitigation/-v path: every
// kernel runs under default injection with a mitigation policy armed, and
// the verbose reporter fires without disturbing the run.
func TestRunWithFaultFlags(t *testing.T) {
	opt := quickOpt()
	opt.Faults = true
	opt.Mitigation = "trr"
	opt.Verbose = true
	if err := run("table1", opt); err != nil {
		t.Fatalf("run(table1) with fault flags: %v", err)
	}
}

func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := profiled(path, func() error { return run("table1", quickOpt()) }); err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
	if err := profiled(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), func() error { return nil }); err == nil {
		t.Fatal("an unwritable profile path must fail")
	}
}
