package main

// endToEndUnits are the --trace 0 metrics. Throughput is not separate:
// each workload's pass is a fixed body of work, so wall_s is its inverse.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"wall_s":        "s",
	"cpu_s":         "s",
	"alloc_mib":     "MiB",
	"heap_peak_mib": "MiB",
}

// layerUnits are the --trace 1 metrics, each a median over traced passes
// (per pass unless the name says per op, row, pick or access). A layer a
// workload does not exercise reads 0. LEDGER.md maps each to the
// end-to-end metric and workload it should move.
var layerUnits = map[string]string{
	"workload.ops":                   "count",
	"workload.gen_s":                 "s",
	"workload.gen_ns_per_op":         "ns",
	"cpu.instructions":               "count",
	"cpu.stall_cycles":               "cycles",
	"cpu.replay_s":                   "s",
	"cache.l1_miss_ratio":            "ratio",
	"cache.l2_miss_ratio":            "ratio",
	"cache.writebacks":               "count",
	"cache.replay_ns_per_access":     "ns",
	"core.newsystem_s":               "s",
	"core.run_s":                     "s",
	"core.residual_s":                "s",
	"core.emu_mcycles":               "Mcycles",
	"smc.served":                     "count",
	"smc.row_hit_ratio":              "ratio",
	"smc.picks":                      "count",
	"smc.pick_ns":                    "ns",
	"tile.programs":                  "count",
	"tile.instrs":                    "count",
	"dram.acts":                      "count",
	"dram.rds":                       "count",
	"dram.wrs":                       "count",
	"dram.timing_violations":         "count",
	"techniques.rows":                "count",
	"techniques.roundtrips_per_row":  "ratio",
	"techniques.profile_ns_per_row":  "ns",
	"techniques.min_trcd_ns_per_row": "ns",
	"bloom.build_s":                  "s",
	"validation.max_err_pct":         "%",
	"ledger.workload_pct":            "%",
	"ledger.cpu_cache_pct":           "%",
	"ledger.smc_pct":                 "%",
	"ledger.core_residual_pct":       "%",
	"ledger.core_newsystem_pct":      "%",
	"ledger.techniques_pct":          "%",
	"ledger.harness_pct":             "%",
	"trace.overhead_pct":             "%",
}

// startPass resets the per-pass seam counters before traced pass n.
func (t *tracer) startPass(n int) {
	t.pass = n
	for _, s := range []*seamStats{&t.next, &t.pick, &t.trcd} {
		s.calls.Store(0)
		s.ns.Store(0)
	}
	t.inRun = [3]int64{}
	t.ops, t.accesses = 0, 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passMetrics computes the per-layer metrics of the traced pass just
// finished, whose wall time was wall, plus pass.traced_wall_s: the pass's wall time without the
// replays, the figure the tracing overhead compares.
//
// The ledger splits that wall time into self times that add up to it:
// stream Next time inside System.Run (workload), the cpu+cache replay
// (standing in for the CPU model's self time inside Run, which no seam
// exposes), scheduler picks (smc), Run's remainder — event merge, the rest
// of the controller, tile, Bender and chip (core residual) — NewSystem,
// the host-driven techniques calls less the picks they made (which
// includes the tile, Bender and chip work they drive), and the
// benchmark's own code between calls (harness).
func (t *tracer) passMetrics(out passOut, wall float64) map[string]float64 {
	// d sums self time by span name: duration less the children's.
	d := map[string]float64{}
	var replays float64
	for _, s := range t.spans {
		if s.Pass != t.pass {
			continue
		}
		sec := float64(s.EndNs-s.StartNs) / 1e9
		d[s.Name] += sec
		if p := s.Parent; p >= 0 {
			d[t.spans[p].Name] -= sec
		}
		if s.Name == "replay" || s.Name == "bloom.build" {
			replays += sec
		}
	}
	tracedWall := wall - replays
	run := d["core.run"]
	techSpans := d["techniques.characterize"] + d["techniques.min_trcd"] + d["techniques.provider"]
	next := float64(t.inRun[0]) / 1e9
	pickAll := float64(t.pick.ns.Load()) / 1e9
	pickRun := float64(t.inRun[1]) / 1e9
	trcdRun := float64(t.inRun[2]) / 1e9
	residual := run - next - pickRun - trcdRun - d["cpu.replay"]
	tech := techSpans - (pickAll - pickRun) + trcdRun
	harness := tracedWall - d["core.newsystem"] - run - techSpans
	picks := float64(t.pick.calls.Load())
	c := out.c
	rows := float64(c.rows)
	pct := func(v float64) float64 { return 100 * ratio(v, tracedWall) }
	return map[string]float64{
		"pass.traced_wall_s":             tracedWall,
		"workload.ops":                   float64(t.ops),
		"workload.gen_s":                 d["workload.gen"],
		"workload.gen_ns_per_op":         1e9 * ratio(d["workload.gen"], float64(t.ops)),
		"cpu.instructions":               float64(c.instructions),
		"cpu.stall_cycles":               float64(c.stallCycles),
		"cpu.replay_s":                   d["cpu.replay"],
		"cache.l1_miss_ratio":            ratio(float64(c.l1Misses), float64(c.l1Hits+c.l1Misses)),
		"cache.l2_miss_ratio":            ratio(float64(c.l2Misses), float64(c.l2Hits+c.l2Misses)),
		"cache.writebacks":               float64(c.writebacks),
		"cache.replay_ns_per_access":     1e9 * ratio(d["cache.replay"], float64(t.accesses)),
		"core.newsystem_s":               d["core.newsystem"],
		"core.run_s":                     run,
		"core.residual_s":                residual,
		"core.emu_mcycles":               float64(c.emuCycles) / 1e6,
		"smc.served":                     float64(c.served),
		"smc.row_hit_ratio":              ratio(float64(c.rowHits), float64(c.rowHits+c.rowMisses)),
		"smc.picks":                      picks,
		"smc.pick_ns":                    1e9 * ratio(pickAll, picks),
		"tile.programs":                  float64(c.programs),
		"tile.instrs":                    float64(c.instrs),
		"dram.acts":                      float64(c.acts),
		"dram.rds":                       float64(c.rds),
		"dram.wrs":                       float64(c.wrs),
		"dram.timing_violations":         float64(c.violations),
		"techniques.rows":                rows,
		"techniques.roundtrips_per_row":  ratio(float64(c.roundtrips), rows),
		"techniques.profile_ns_per_row":  1e9 * ratio(d["techniques.characterize"], rows),
		"techniques.min_trcd_ns_per_row": 1e9 * ratio(d["techniques.min_trcd"], rows),
		"bloom.build_s":                  d["bloom.build"],
		"validation.max_err_pct":         c.maxErrPct,
		"ledger.workload_pct":            pct(next),
		"ledger.cpu_cache_pct":           pct(d["cpu.replay"]),
		"ledger.smc_pct":                 pct(pickAll),
		"ledger.core_residual_pct":       pct(residual),
		"ledger.core_newsystem_pct":      pct(d["core.newsystem"]),
		"ledger.techniques_pct":          pct(tech),
		"ledger.harness_pct":             pct(harness),
	}
}
