// Command benchall regenerates every table and figure of the paper and
// writes an EXPERIMENTS-style report to stdout (or a file), recording the
// paper's numbers next to the measured ones. It also emits a
// machine-readable BENCH_<date>.json snapshot — headline metric values plus
// per-section wall-clock timings — so the repository accumulates a
// performance trajectory that future optimisation work is judged against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"easydram"
	"easydram/internal/core"
	"easydram/internal/difffuzz"
	"easydram/internal/experiments"
	"easydram/internal/smc"
	"easydram/internal/stats"
	"easydram/internal/techniques"
	"easydram/internal/workload"
)

func main() {
	out := flag.String("o", "", "report output file (default stdout)")
	quick := flag.Bool("quick", false, "use reduced-scale parameters")
	seed := flag.Uint64("seed", 1, "DRAM variation seed")
	workers := flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", `snapshot file (default BENCH_<date>.json; "none" disables)`)
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("benchall: %v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatalf("benchall: %v", err)
			}
		}()
		w = f
	}

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
		opt.KernelSize = workload.Small
	}
	opt.Seed = *seed
	opt.Workers = *workers

	snap := newSnapshot(opt, *quick)
	if err := report(w, opt, snap); err != nil {
		log.Fatalf("benchall: %v", err)
	}

	if *jsonOut != "none" {
		path := *jsonOut
		if path == "" {
			// Keyed off the snapshot's own date stamp so a run crossing
			// midnight cannot produce a filename/content mismatch. The
			// snapshots are the repo's perf trajectory, so a same-day file
			// is never clobbered: later runs uniquify with a letter suffix.
			path = fmt.Sprintf("BENCH_%s.json", snap.Date)
			for suffix := 'b'; ; suffix++ {
				if _, err := os.Stat(path); os.IsNotExist(err) {
					break
				}
				if suffix > 'z' {
					log.Fatalf("benchall: all same-day snapshot names through BENCH_%sz.json exist; pass -json to name one explicitly", snap.Date)
				}
				path = fmt.Sprintf("BENCH_%s%c.json", snap.Date, suffix)
			}
		}
		if err := snap.write(path); err != nil {
			log.Fatalf("benchall: %v", err)
		}
		fmt.Fprintf(os.Stderr, "benchall: wrote %s\n", path)
	}
}

// snapshot is the machine-readable performance record one benchall run
// leaves behind (the perf trajectory's data points).
type snapshot struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// HostCPUs records the machine's logical CPU count, so trend gates on
	// host-parallelism metrics (workers_speedup_4x) can skip hosts that
	// cannot express the parallelism being measured.
	HostCPUs int     `json:"host_cpus"`
	Workers  int     `json:"workers"`
	Quick    bool    `json:"quick"`
	Seed     uint64  `json:"seed"`
	WallSecs float64 `json:"wall_seconds"`
	// Sections records per-experiment wall-clock seconds in run order.
	Sections []sectionTiming `json:"sections"`
	// Metrics holds the headline numeric results keyed experiment/metric.
	Metrics map[string]float64 `json:"metrics"`
}

type sectionTiming struct {
	Name     string  `json:"name"`
	WallSecs float64 `json:"wall_seconds"`
}

func newSnapshot(opt experiments.Options, quick bool) *snapshot {
	return &snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		HostCPUs:   runtime.NumCPU(),
		Workers:    opt.Workers,
		Quick:      quick,
		Seed:       opt.Seed,
		Metrics:    map[string]float64{},
	}
}

func (s *snapshot) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func report(w io.Writer, opt experiments.Options, snap *snapshot) error {
	start := time.Now()
	section := func(title string) { fmt.Fprintf(w, "\n## %s\n\n", title) }
	// timed runs one experiment section and records its wall clock in the
	// snapshot (the per-section perf trajectory).
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		snap.Sections = append(snap.Sections, sectionTiming{name, time.Since(t0).Seconds()})
		return nil
	}

	sections := []struct {
		name string
		run  func() error
	}{
		{"table1", func() error {
			section("Table 1 — platform comparison")
			t1, err := experiments.Table1(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t1.Render())
			snap.Metrics["table1/mcycles_per_sec"] = t1.MeasuredCyclesPerSec / 1e6
			return nil
		}},
		{"figure2", func() error {
			section("Figure 2 — request time breakdown")
			f2, err := experiments.Figure2(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, f2.Table())
			snap.Metrics["figure2/smc_vs_real_latency_ratio"] = f2.LatencyRatio(experiments.PlatformSMC, experiments.PlatformReal)
			return nil
		}},
		{"validation", func() error {
			section("§6 — time-scaling validation (paper: <0.1% avg, <1% max)")
			val, err := experiments.Validation(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, val.Table())
			snap.Metrics["validation/avg_err_pct"] = val.AvgPct
			snap.Metrics["validation/max_err_pct"] = val.MaxPct
			return nil
		}},
		{"figure8", func() error {
			section("Figure 8 — lmbench latency profile")
			f8, err := experiments.Figure8(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, f8.Table())
			snap.Metrics["figure8/ts_mem_cycles"] = f8.PlateauCycles(experiments.NameTS)
			snap.Metrics["figure8/nots_mem_cycles"] = f8.PlateauCycles(experiments.NameNoTS)
			snap.Metrics["figure8/a57_mem_cycles"] = f8.PlateauCycles(experiments.NameCortex)
			return nil
		}},
		{"figure10", func() error {
			section("Figure 10 — RowClone No Flush (paper: copy 306.7x/15.0x/27.2x, init 36.7x/1.8x/17.3x)")
			f10, err := experiments.RowClone(opt, false)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, f10.Table())
			snap.Metrics["figure10/copy_ts_avg_x"] = stats.Mean(f10.Copy[experiments.NameTS])
			snap.Metrics["figure10/copy_nots_avg_x"] = stats.Mean(f10.Copy[experiments.NameNoTS])
			snap.Metrics["figure10/init_ts_avg_x"] = stats.Mean(f10.Init[experiments.NameTS])
			return nil
		}},
		{"figure11", func() error {
			section("Figure 11 — RowClone CLFLUSH (paper: copy 3.1x/4.04x avg)")
			f11, err := experiments.RowClone(opt, true)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, f11.Table())
			snap.Metrics["figure11/copy_ts_avg_x"] = stats.Mean(f11.Copy[experiments.NameTS])
			return nil
		}},
		{"figure12", func() error {
			section("Figure 12 — minimum reliable tRCD heatmap (paper: 84.5% strong)")
			f12, err := experiments.Figure12(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, f12.Heatmap())
			snap.Metrics["figure12/strong_pct"] = 100 * f12.StrongFraction
			return nil
		}},
		{"figure13", func() error {
			section("Figures 13 & 14 — tRCD reduction (paper: +2.75% avg EasyDRAM, +2.58% Ramulator) and simulation speed (paper: 5.9x avg)")
			f13, err := experiments.Figure13(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, f13.Table())
			fmt.Fprintln(w, f13.SpeedTable())
			fmt.Fprintf(w, "EasyDRAM avg improvement: %.2f%% (max %.2f%%)\n",
				f13.AvgSpeedupPct(experiments.NameTS), f13.MaxSpeedupPct(experiments.NameTS))
			fmt.Fprintf(w, "Ramulator avg improvement: %.2f%% (max %.2f%%)\n",
				f13.AvgSpeedupPct(experiments.NameRamulator), f13.MaxSpeedupPct(experiments.NameRamulator))
			fmt.Fprintf(w, "EasyDRAM sim speed geomean %.2f MHz\n", stats.Geomean(f13.SimSpeedMHz[experiments.NameTS]))
			snap.Metrics["figure13/easydram_avg_pct"] = f13.AvgSpeedupPct(experiments.NameTS)
			snap.Metrics["figure13/easydram_max_pct"] = f13.MaxSpeedupPct(experiments.NameTS)
			snap.Metrics["figure13/ramulator_avg_pct"] = f13.AvgSpeedupPct(experiments.NameRamulator)
			snap.Metrics["figure14/easydram_geomean_mhz"] = stats.Geomean(f13.SimSpeedMHz[experiments.NameTS])
			snap.Metrics["figure14/ramulator_geomean_mhz"] = stats.Geomean(f13.SimSpeedMHz[experiments.NameRamulator])
			if m := snap.Metrics["figure14/ramulator_geomean_mhz"]; m > 0 {
				snap.Metrics["figure14/speed_ratio"] = snap.Metrics["figure14/easydram_geomean_mhz"] / m
			}
			return nil
		}},
		{"energy", func() error {
			section("Extension — RowClone DRAM energy (RowClone paper: ~74x for FPM copy)")
			en, err := experiments.Energy(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, en.Table())
			snap.Metrics["energy/advantage_x"] = en.Ratio[len(en.Ratio)-1]
			return nil
		}},
		{"ablations", func() error {
			section("Extension — design-axis ablations")
			abl, err := experiments.Ablations(opt)
			if err != nil {
				return err
			}
			for _, a := range abl {
				fmt.Fprintln(w, a.Table())
			}
			return nil
		}},
		{"disturb", func() error {
			section("Extension — RowHammer disturb sweep (escaped flips and mitigation overhead)")
			ds, err := experiments.DisturbSweep(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, ds.Table())
			snap.Metrics["faults/none_escaped_flips"] = float64(ds.Escaped("none"))
			snap.Metrics["faults/para_escaped_flips"] = float64(ds.Escaped("para"))
			snap.Metrics["faults/trr_escaped_flips"] = float64(ds.Escaped("trr"))
			snap.Metrics["faults/trr_overhead_pct"] = ds.Overhead("trr")
			return nil
		}},
		{"snapshot", func() error {
			section("Extension — durable characterization store and restore identity")
			ws, err := experiments.WarmStart(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, ws.Table())
			// The speedup is host wall clock — snapshot JSON and stderr
			// only, never the report (whose bytes stay machine-identical).
			snap.Metrics["snapshot/warm_start_speedup_x"] = ws.SpeedupX()
			snap.Metrics["snapshot/fallbacks"] = float64(ws.Fallbacks)
			snap.Metrics["snapshot/identity_mismatches"] = float64(ws.IdentityMismatches)
			fmt.Fprintf(os.Stderr, "benchall: snapshot: warm-start %.1fx, %d fallback(s), %d identity mismatch(es)\n",
				ws.SpeedupX(), ws.Fallbacks, ws.IdentityMismatches)
			return nil
		}},
		{"fairness", func() error {
			section("Extension — multi-core fairness sweep (BLISS vs FR-FCFS under multiprogram mixes)")
			fr, err := experiments.FairnessSweep(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, fr.Table())
			// The headline cells: the mixed workload at the grid's top core
			// count, per scheduler. BLISS's max slowdown (and the FR-FCFS
			// baseline it is judged against) plus the delivered throughput.
			counts := experiments.FairnessCoreCounts(opt)
			top := counts[len(counts)-1]
			bl := fr.Cell("bliss", "mixed", top)
			base := fr.Cell("fr-fcfs", "mixed", top)
			if bl == nil || base == nil {
				return fmt.Errorf("fairness: missing mixed cells at %d cores", top)
			}
			snap.Metrics["fairness/max_slowdown"] = bl.MaxSlowdown
			snap.Metrics["fairness/weighted_speedup"] = bl.WeightedSpeedup
			snap.Metrics["fairness/frfcfs_max_slowdown"] = base.MaxSlowdown
			return nil
		}},
		{"substrate", func() error { return substrateMetrics(snap) }},
		// Last on purpose: the sweep churns through hundreds of full system
		// runs, and the heap it grows would inflate the substrate
		// microbenchmarks' GC share if it ran before them.
		{"difffuzz", func() error {
			section("Extension — differential fuzz sweep (seeded config space vs direct simulation)")
			res := difffuzz.Sweep(difffuzz.SweepOptions{Seed: difffuzz.DefaultSeed, Workers: opt.Workers})
			fmt.Fprintln(w, res.Summary())
			if len(res.Failures) > 0 {
				r := res.Reports[res.Failures[0]]
				return fmt.Errorf("difffuzz: %d of %d cases failed (first: seed %#x %s: %s)",
					len(res.Failures), len(res.Reports), r.Case.Seed, r.Failure.Check, r.Failure.Detail)
			}
			snap.Metrics["difffuzz/configs_checked"] = float64(len(res.Reports))
			snap.Metrics["difffuzz/max_err_pct"] = res.MaxErrPct
			snap.Metrics["difffuzz/avg_err_pct"] = res.AvgErrPct
			return nil
		}},
	}
	for _, s := range sections {
		if err := timed(s.name, s.run); err != nil {
			return err
		}
	}

	snap.WallSecs = time.Since(start).Seconds()
	// Wall-clock goes to the snapshot and stderr, never the report: the
	// report's bytes are identical across runs and -workers settings, which
	// is the cheap determinism probe for the parallel harness.
	fmt.Fprintf(os.Stderr, "benchall: total runtime %v\n", time.Since(start).Round(time.Second))
	return nil
}

// substrateMetrics records simulator-substrate microbenchmarks in the
// snapshot: per-operation cost and steady-state allocations of the
// cache-hit and miss-path service loops, and the §8.1 whole-row
// characterization fast path's throughput and per-row host round-trips.
// These are the machine-level numbers the CI bench-trend step
// (cmd/benchtrend) guards against regression; the allocs/op metrics gate
// at exactly zero, machine shape notwithstanding. They go to the JSON
// snapshot and stderr only — never the report, whose experiment output
// stays byte-identical across runs and worker counts (the determinism
// probe relies on that).
func substrateMetrics(snap *snapshot) error {
	// The kernels are shared with BenchmarkSubstrateCacheAccess/MissPath in
	// bench_test.go (workload.Substrate*), so these snapshot metrics measure
	// exactly the benchmarked code.
	var benchErr error
	substrate := func(kernel func(n int) workload.Kernel) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			sys, err := easydram.NewSystem()
			if err != nil {
				benchErr = err
				b.Skip()
			}
			// Warm outside the measured region: system assembly and the
			// engine/chip buffers' one-time growth must not count toward
			// the allocs/op metric, which gates at exactly zero (the CI
			// smoke step amortizes the same way with a fixed large op
			// count).
			if _, err := sys.Run(kernel(50000)); err != nil {
				benchErr = err
				b.Skip()
			}
			b.ResetTimer()
			if _, err := sys.Run(kernel(b.N)); err != nil {
				benchErr = err
			}
		})
	}
	cacheRes := substrate(workload.SubstrateStream)
	missRes := substrate(workload.SubstrateMisses)
	if benchErr != nil {
		return benchErr
	}

	// Fault-tolerance tax on the hot path, via the same SMC-level harness
	// as BenchmarkSubstrateFaultFree: every fault seam armed (disturb
	// counting, verify-and-retry reads) with nothing ever firing. ns/op is
	// gated against regression and allocs/op gates at exactly zero — fault
	// tolerance must not put allocations on the fault-free service loop.
	faultFreeRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		h, err := smc.NewFaultFreeBenchHarness()
		if err != nil {
			benchErr = err
			b.Skip()
		}
		if err := h.ServeRowBursts(50000, workload.RowBurstDepth, 1); err != nil {
			benchErr = err
			b.Skip()
		}
		b.ResetTimer()
		if err := h.ServeRowBursts(b.N, workload.RowBurstDepth, 1); err != nil {
			benchErr = err
		}
	})
	if benchErr != nil {
		return benchErr
	}

	// Row-hit burst service, via the same SMC-level harness as
	// BenchmarkSubstrateRowHitBurst: burst ns/op (gated), its allocs/op
	// (gated at zero), the vs-serial speedup, and the mean burst length
	// (gated — a drop means the service path stopped coalescing).
	var burstStats smc.ControllerStats
	var serialSecs float64
	burstRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		burst, err := smc.NewBenchHarness()
		if err != nil {
			benchErr = err
			b.Skip()
		}
		serial, err := smc.NewBenchHarness()
		if err != nil {
			benchErr = err
			b.Skip()
		}
		if err := burst.ServeRowBursts(50000, workload.RowBurstDepth, workload.RowBurstDepth); err != nil {
			benchErr = err
			b.Skip()
		}
		if err := serial.ServeRowBursts(50000, workload.RowBurstDepth, 1); err != nil {
			benchErr = err
			b.Skip()
		}
		b.ResetTimer()
		if err := burst.ServeRowBursts(b.N, workload.RowBurstDepth, workload.RowBurstDepth); err != nil {
			benchErr = err
		}
		b.StopTimer()
		burstStats = burst.Ctl.Stats()
		t0 := time.Now()
		if err := serial.ServeRowBursts(b.N, workload.RowBurstDepth, 1); err != nil {
			benchErr = err
		}
		serialSecs = time.Since(t0).Seconds()
	})
	if benchErr != nil {
		return benchErr
	}
	burstSpeedup := 0.0
	if s := burstRes.T.Seconds(); s > 0 {
		burstSpeedup = serialSecs / s
	}

	// Multi-channel fan-out, via the same SMC-level harness as
	// BenchmarkSubstrateMultiChannel: ns/op of the per-channel service
	// loops (gated), allocs/op (gated at zero), and the modeled-time
	// service overlap (machine-independent, gated — a drop means the
	// channels stopped overlapping).
	const benchChannels = 4
	var multiOverlap float64
	multiRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		h, err := smc.NewMultiBenchHarness(benchChannels)
		if err != nil {
			benchErr = err
			b.Skip()
		}
		if err := h.ServeInterleaved(50000, 2*benchChannels); err != nil {
			benchErr = err
			b.Skip()
		}
		b.ResetTimer()
		if err := h.ServeInterleaved(b.N, 2*benchChannels); err != nil {
			benchErr = err
		}
		b.StopTimer()
		multiOverlap = h.Overlap()
	})
	if benchErr != nil {
		return benchErr
	}

	// Worker-pool scaling: the same fixed batch of independent system runs
	// at 1 and 4 workers. On the 4-core CI runners the ratio approaches 4;
	// recorded per merge (warn-only in cmd/benchtrend) so the parallel
	// harness's real scaling finally has a trajectory.
	scaling, err := experiments.ParallelScalingProbe(experiments.Quick(), []int{1, 4})
	if err != nil {
		return err
	}
	workersSpeedup := 0.0
	if scaling[1] > 0 {
		workersSpeedup = scaling[0] / scaling[1]
	}

	cfg := core.TimeScalingA57()
	cfg.DRAM = core.TechniqueDRAM()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	const rows = 256
	span := uint64(rows) * uint64(sys.Mapper().RowBytes())
	t0 := time.Now()
	if _, _, err := techniques.ProfileWeakRows(sys, 0, span, techniques.ReducedTRCD); err != nil {
		return err
	}
	rowsPerSec := rows / time.Since(t0).Seconds()
	tripsPerRow := float64(sys.HostRequests()) / rows

	snap.Metrics["substrate/cache_ns_op"] = float64(cacheRes.NsPerOp())
	snap.Metrics["substrate/miss_ns_op"] = float64(missRes.NsPerOp())
	snap.Metrics["substrate/cache_allocs_op"] = float64(cacheRes.AllocsPerOp())
	snap.Metrics["substrate/miss_allocs_op"] = float64(missRes.AllocsPerOp())
	snap.Metrics["substrate/fault_free_ns_op"] = float64(faultFreeRes.NsPerOp())
	snap.Metrics["substrate/fault_free_allocs_op"] = float64(faultFreeRes.AllocsPerOp())
	snap.Metrics["substrate/burst_ns_op"] = float64(burstRes.NsPerOp())
	snap.Metrics["substrate/burst_allocs_op"] = float64(burstRes.AllocsPerOp())
	snap.Metrics["substrate/burst_vs_serial_x"] = burstSpeedup
	snap.Metrics["substrate/multichan_ns_op"] = float64(multiRes.NsPerOp())
	snap.Metrics["substrate/multichan_allocs_op"] = float64(multiRes.AllocsPerOp())
	snap.Metrics["substrate/multichan_overlap_x"] = multiOverlap
	snap.Metrics["experiments/workers_speedup_4x"] = workersSpeedup
	snap.Metrics["smc/avg_burst_len"] = burstStats.AvgBurstLen()
	snap.Metrics["characterization/rows_per_sec"] = rowsPerSec
	snap.Metrics["characterization/roundtrips_per_row"] = tripsPerRow
	fmt.Fprintf(os.Stderr, "benchall: substrate: cache %d ns/op (%d allocs/op), miss %d ns/op (%d allocs/op), fault-free %d ns/op (%d allocs/op), burst %d ns/op (%.2fx vs serial, avg len %.1f), multichan %d ns/op (%.2fx overlap), workers 1->4 %.2fx, characterization %.0f rows/s (%.2f round-trips/row)\n",
		cacheRes.NsPerOp(), cacheRes.AllocsPerOp(), missRes.NsPerOp(), missRes.AllocsPerOp(),
		faultFreeRes.NsPerOp(), faultFreeRes.AllocsPerOp(),
		burstRes.NsPerOp(), burstSpeedup, burstStats.AvgBurstLen(),
		multiRes.NsPerOp(), multiOverlap, workersSpeedup, rowsPerSec, tripsPerRow)
	return nil
}
