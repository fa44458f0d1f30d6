package core

import (
	"encoding/json"
	"testing"

	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/workload"
)

// digest canonically serializes a Result for bit-identity comparisons.
func digest(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSingleCoreBitIdentityGolden pins the multicore tentpole's central
// guarantee: a Cores<=1 configuration runs the single-core loop, not the
// merge, so RunStreams with one stream is bit-identical — every field of
// the Result — to Run, in both clock modes (TestGoldenCycleCounts pins
// Run's numbers).
func TestSingleCoreBitIdentityGolden(t *testing.T) {
	configs := map[string]Config{
		"scaled":   TimeScalingA57(),
		"unscaled": NoTimeScaling(),
	}
	kernel := workload.PBGemver(48)
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for _, cores := range []int{0, 1} {
				c := cfg
				c.Cores = cores
				sysA, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				base, err := sysA.Run(kernel.Stream())
				if err != nil {
					t.Fatal(err)
				}
				sysB, err := NewSystem(c)
				if err != nil {
					t.Fatal(err)
				}
				multi, err := sysB.RunStreams([]workload.Stream{kernel.Stream()})
				if err != nil {
					t.Fatal(err)
				}
				if digest(t, base) != digest(t, multi) {
					t.Fatalf("Cores=%d RunStreams diverged from the single-core engine:\n%+v\nvs\n%+v", cores, multi, base)
				}
			}
		})
	}
}

// TestMultiCoreDeterministic pins reproducibility of the contention model:
// a 2-core run with identical configuration and streams produces
// bit-identical results (all counters and per-core breakdowns). Runs under
// the CI race-smoke job.
func TestMultiCoreDeterministic(t *testing.T) {
	configs := map[string]Config{
		"scaled":   TimeScalingA57(),
		"unscaled": NoTimeScaling(),
	}
	for name, cfg := range configs {
		cfg := cfg
		cfg.Cores = 2
		t.Run(name, func(t *testing.T) {
			run := func() Result {
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.RunStreams([]workload.Stream{
					workload.PBGemver(48).Stream(),
					workload.LatMemRd(128<<10, 500).Stream(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if digest(t, a) != digest(t, b) {
				t.Fatalf("2-core runs diverged:\n%+v\nvs\n%+v", a, b)
			}
			if len(a.PerCore) != 2 {
				t.Fatalf("want 2 per-core results, got %d", len(a.PerCore))
			}
		})
	}
}

// TestMultiCoreConservation checks the end-to-end accounting of a 4-core
// contended run: every memory operation the cores issued reaches the tile
// seam and is served by the controllers, and the aggregate CPU counters
// equal the sum of the per-core ones.
func TestMultiCoreConservation(t *testing.T) {
	configs := map[string]Config{
		"scaled":   TimeScalingA57(),
		"unscaled": NoTimeScaling(),
	}
	for name, cfg := range configs {
		cfg := cfg
		cfg.Cores = 4
		t.Run(name, func(t *testing.T) {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.RunStreams([]workload.Stream{
				workload.PBGemver(32).Stream(),
				workload.LatMemRd(128<<10, 400).Stream(),
				workload.StreamTriad(2048).Stream(),
				workload.RandomAccess(512<<10, 600).Stream(),
			})
			if err != nil {
				t.Fatal(err)
			}
			issued := res.CPU.MemReads + res.CPU.MemFills + res.CPU.Writebacks +
				res.CPU.Flushes + res.CPU.RowClones + res.CPU.Prefetches
			if issued == 0 {
				t.Fatal("no memory traffic issued")
			}
			if res.Tile.RequestsIn != issued || res.Tile.ResponsesOut != issued || res.Ctrl.Served != issued {
				t.Fatalf("conservation violated: issued=%d tile.in=%d tile.out=%d served=%d",
					issued, res.Tile.RequestsIn, res.Tile.ResponsesOut, res.Ctrl.Served)
			}
			var sum int64
			var maxCycles = res.PerCore[0].ProcCycles
			for _, c := range res.PerCore {
				sum += c.CPU.Instructions
				if c.ProcCycles > maxCycles {
					maxCycles = c.ProcCycles
				}
				if c.ProcCycles == 0 {
					t.Fatal("a core reported zero cycles")
				}
			}
			if sum != res.CPU.Instructions {
				t.Fatalf("aggregate instructions %d != per-core sum %d", res.CPU.Instructions, sum)
			}
			if res.ProcCycles != maxCycles {
				t.Fatalf("ProcCycles %d should be the makespan %d", res.ProcCycles, maxCycles)
			}
		})
	}
}

// TestMultiCoreContentionSlows checks the point of the model: a core
// sharing the memory system with a bandwidth hog finishes later than the
// same core running alone.
func TestMultiCoreContentionSlows(t *testing.T) {
	cfg := NoTimeScaling()
	alone, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := alone.Run(workload.LatMemRd(128<<10, 400).Stream())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cores = 2
	shared, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shared.RunStreams([]workload.Stream{
		workload.LatMemRd(128<<10, 400).Stream(),
		workload.StreamTriad(4096).Stream(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerCore[0].ProcCycles <= base.ProcCycles {
		t.Fatalf("contended run (%d cycles) should be slower than alone (%d cycles)",
			res.PerCore[0].ProcCycles, base.ProcCycles)
	}
}

// TestMultiCoreConfigMatrix sweeps the engine knobs the merge loop has to
// coexist with — refresh accounting, multi-channel topologies, BLISS — and
// checks determinism plus request conservation in each.
func TestMultiCoreConfigMatrix(t *testing.T) {
	variants := map[string]func() Config{
		"unscaled-refresh": func() Config { c := NoTimeScaling(); c.RefreshEnabled = true; return c },
		"scaled-refresh":   func() Config { c := TimeScalingA57(); c.RefreshEnabled = true; return c },
		"unscaled-2ch": func() Config {
			c := NoTimeScaling()
			c.Topology = dram.Topology{Channels: 2, Ranks: 1}
			return c
		},
		"scaled-2ch-refresh": func() Config {
			c := TimeScalingA57()
			c.Topology = dram.Topology{Channels: 2, Ranks: 2}
			c.RefreshEnabled = true
			return c
		},
		"unscaled-bliss": func() Config { c := NoTimeScaling(); c.Scheduler = smc.NewBLISS(); return c },
	}
	for name, mk := range variants {
		mk := mk
		t.Run(name, func(t *testing.T) {
			cfg := mk()
			cfg.Cores = 3
			run := func() Result {
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.RunStreams([]workload.Stream{
					workload.PBGemver(32).Stream(),
					workload.LatMemRd(128<<10, 300).Stream(),
					workload.StreamTriad(1024).Stream(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if digest(t, a) != digest(t, b) {
				t.Fatal("runs diverged")
			}
			issued := a.CPU.MemReads + a.CPU.MemFills + a.CPU.Writebacks +
				a.CPU.Flushes + a.CPU.RowClones + a.CPU.Prefetches
			if a.Ctrl.Served != issued {
				t.Fatalf("conservation violated: served=%d issued=%d", a.Ctrl.Served, issued)
			}
		})
	}
}

// TestMultiCoreGuards pins the multi-core API contract: Run and the
// checkpoint paths reject multi-core systems, and RunStreams validates the
// stream count.
func TestMultiCoreGuards(t *testing.T) {
	cfg := NoTimeScaling()
	cfg.Cores = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(workload.PBGemver(16).Stream()); err == nil {
		t.Fatal("Run should reject a multi-core system")
	}
	if _, _, err := sys.RunCheckpoint(workload.PBGemver(16).Stream(), 100); err == nil {
		t.Fatal("RunCheckpoint should reject a multi-core system")
	}
	if _, err := sys.RunStreams([]workload.Stream{workload.PBGemver(16).Stream()}); err == nil {
		t.Fatal("RunStreams should reject a stream-count mismatch")
	}
	bad := NoTimeScaling()
	bad.Cores = 65
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate should reject Cores > 64")
	}
}
