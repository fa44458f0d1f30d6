package main

import (
	"fmt"
	"sort"
	"strings"

	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/experiments"
	"easydram/internal/smc"
	"easydram/internal/stats"
	"easydram/internal/techniques"
	"easydram/internal/workload"
)

// A workload is a fixed body of work — one pass — run through the public
// entry points the experiments runners use. Passes are serial: one system
// run in flight at a time (the experiments worker pool at 1), each run with
// its own generator goroutine, which fills a 2-CPU host.
type workloadDef struct {
	name string
	// seedIndependent workloads produce the same emulated outputs for every
	// seed (their module tracks no data and has no reduced-tRCD hook, so the
	// seeded variation model is never read); every seed is then checked
	// against the recorded digest.
	seedIndependent bool
	inputs          func(seed uint64) inputs
	pass            func(in inputs, t *tracer) (passOut, error)
}

// inputs are everything a pass needs, derived from the seed alone.
type inputs struct {
	seed    uint64
	kernels []workload.Kernel // validation
	mixes   []workload.Mix    // contention
	cores   []int             // contention
	scheds  []string          // contention
	start   uint64            // characterize: profiled physical range
	end     uint64
}

// record is one named emulated output of a pass; the digest check compares
// records, so a mismatch names the run that diverged.
type record struct {
	Name  string
	Value string
}

// passOut is what one pass produced: its records in a fixed order and the
// program's own counters summed over the pass's runs.
type passOut struct {
	records []record
	c       counters
}

// counters are the emulated-side counts the program reports per run,
// summed over a pass.
type counters struct {
	emuCycles, instructions, stallCycles int64
	l1Hits, l1Misses, l2Hits, l2Misses   int64
	writebacks                           int64
	served, rowHits, rowMisses           int64
	programs, instrs                     int64
	acts, rds, wrs, violations           int64
	rows, roundtrips                     int64
	maxErrPct                            float64
}

func (c *counters) addResult(r core.Result) {
	c.emuCycles += int64(r.ProcCycles)
	c.instructions += r.CPU.Instructions
	c.stallCycles += int64(r.CPU.StallCycles)
	c.l1Hits += r.L1.Hits
	c.l1Misses += r.L1.Misses
	c.l2Hits += r.L2.Hits
	c.l2Misses += r.L2.Misses
	c.writebacks += r.CPU.Writebacks
	c.addMemSide(r)
}

// addMemSide adds the controller, tile and chip counters of r.
func (c *counters) addMemSide(r core.Result) {
	c.served += r.Ctrl.Served
	c.rowHits += r.Ctrl.RowHits
	c.rowMisses += r.Ctrl.RowMisses
	c.programs += r.Tile.ProgramsRun
	c.instrs += r.Tile.InstrsRun
	c.acts += r.Chip.ACTs
	c.rds += r.Chip.RDs
	c.wrs += r.Chip.WRs
	c.violations += r.Chip.TimingViolations
}

// maxProcCycles is the experiments runners' runaway-run safety net.
var maxProcCycles = experiments.Default().MaxProcCycles

var workloads = []workloadDef{
	{name: "validation", seedIndependent: true, inputs: validationInputs, pass: validationPass},
	{name: "contention", seedIndependent: true, inputs: contentionInputs, pass: contentionPass},
	{name: "characterize", inputs: characterizeInputs, pass: characterizePass},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runSystem builds one system from cfg and runs the streams mk returns on
// it (one stream per emulated core). When t is non-nil it wraps the
// engine's seams and afterwards replays fresh copies of the streams
// through single layers.
func runSystem(t *tracer, out *passOut, cfg core.Config, mk func() []workload.Stream) (core.Result, error) {
	cfg.MaxProcCycles = maxProcCycles
	cfg.Scheduler = t.wrapScheduler(cfg.Scheduler)
	cfg.TRCD = t.wrapTRCD(cfg.TRCD)
	sp := t.begin("core.newsystem")
	sys, err := core.NewSystem(cfg)
	t.end(sp)
	if err != nil {
		return core.Result{}, err
	}
	strms := mk()
	for i := range strms {
		strms[i] = t.wrapStream(strms[i])
	}
	seam0 := t.seamNs()
	sp = t.begin("core.run")
	var res core.Result
	if cfg.Cores > 1 {
		res, err = sys.RunStreams(strms)
	} else {
		res, err = sys.Run(strms[0])
	}
	t.end(sp)
	t.addRunSeams(seam0)
	if err != nil {
		return core.Result{}, err
	}
	out.c.addResult(res)
	if t != nil {
		t.replay(cfg, mk)
	}
	return res, nil
}

func single(k workload.Kernel) func() []workload.Stream {
	return func() []workload.Stream { return []workload.Stream{k.Stream()} }
}

func cyclesRecord(name string, r core.Result) record {
	v := fmt.Sprintf("cycles=%d marks=%v", r.ProcCycles, r.Marks)
	for _, c := range r.PerCore {
		v += fmt.Sprintf(" core=%d/%v", c.ProcCycles, c.Marks)
	}
	return record{name, v}
}

// validation: the §6 suite — 28 PolyBench kernels plus the lmbench chase,
// each on the time-scaled 1 GHz system and on the directly simulated 1 GHz
// reference, at the Small size class the validation sweeps use.

const validationSize = workload.Small

func validationInputs(seed uint64) inputs {
	ks := workload.ValidationSuite(validationSize)
	ks = append(ks, workload.LatMemRd(1<<20, experiments.Default().LatAccesses))
	return inputs{seed: seed, kernels: ks}
}

func validationPass(in inputs, t *tracer) (passOut, error) {
	var out passOut
	for _, k := range in.kernels {
		tsCfg := core.TimeScaling1GHz()
		tsCfg.DRAM.Seed = in.seed
		refCfg := core.Reference1GHz()
		refCfg.DRAM.Seed = in.seed
		ts, err := runSystem(t, &out, tsCfg, single(k))
		if err != nil {
			return out, fmt.Errorf("validation %s scaled: %w", k.Name, err)
		}
		ref, err := runSystem(t, &out, refCfg, single(k))
		if err != nil {
			return out, fmt.Errorf("validation %s reference: %w", k.Name, err)
		}
		if ref.ProcCycles == 0 {
			return out, fmt.Errorf("validation %s: reference ran for zero cycles", k.Name)
		}
		errPct := 100 * float64(ts.ProcCycles-ref.ProcCycles) / float64(ref.ProcCycles)
		if errPct < 0 {
			errPct = -errPct
		}
		if errPct > out.c.maxErrPct {
			out.c.maxErrPct = errPct
		}
		out.records = append(out.records,
			cyclesRecord(k.Name+"/scaled", ts),
			cyclesRecord(k.Name+"/reference", ref),
			record{k.Name + "/err_pct", fmt.Sprintf("%.9f", errPct)})
	}
	out.records = append(out.records, record{"max_err_pct", fmt.Sprintf("%.9f", out.c.maxErrPct)})
	// The paper's accuracy claim: time scaling stays within 1% of the
	// directly simulated reference.
	if out.c.maxErrPct >= 1 {
		return out, fmt.Errorf("validation: max error %.4f%% is not below 1%%", out.c.maxErrPct)
	}
	return out, nil
}

// contention: the fairness grid — FR-FCFS and BLISS × the three mixes × 2
// and 4 emulated cores, each cell's contended run plus one alone run per
// core on the same scheduler, as experiments.FairnessSweep runs it.

func contentionInputs(seed uint64) inputs {
	return inputs{
		seed:   seed,
		mixes:  workload.Mixes(),
		cores:  experiments.FairnessCoreCounts(experiments.Default()),
		scheds: experiments.FairnessSchedulers,
	}
}

func newScheduler(name string) (smc.Scheduler, error) {
	switch name {
	case "fr-fcfs":
		return smc.FRFCFS{}, nil
	case "bliss":
		return smc.NewBLISS(), nil
	}
	return nil, fmt.Errorf("unknown scheduler %q", name)
}

func contentionConfig(seed uint64, sched string, cores int) (core.Config, error) {
	cfg := core.TimeScalingA57()
	cfg.Cores = cores
	cfg.DRAM.Seed = seed
	s, err := newScheduler(sched)
	cfg.Scheduler = s
	return cfg, err
}

func contentionPass(in inputs, t *tracer) (passOut, error) {
	var out passOut
	for _, sched := range in.scheds {
		for _, mix := range in.mixes {
			for _, n := range in.cores {
				cell := fmt.Sprintf("%s/%s/%d", sched, mix.Name, n)
				cfg, err := contentionConfig(in.seed, sched, n)
				if err != nil {
					return out, err
				}
				shared, err := runSystem(t, &out, cfg, func() []workload.Stream { return mix.Streams(n) })
				if err != nil {
					return out, fmt.Errorf("contention %s: %w", cell, err)
				}
				out.records = append(out.records, cyclesRecord(cell+"/shared", shared))
				sharedCycles := make([]float64, n)
				aloneCycles := make([]float64, n)
				for c := 0; c < n; c++ {
					sharedCycles[c] = float64(shared.PerCore[c].ProcCycles)
					// A fresh scheduler per alone run: BLISS must not carry
					// blacklist state into a baseline.
					aloneCfg, err := contentionConfig(in.seed, sched, 0)
					if err != nil {
						return out, err
					}
					alone, err := runSystem(t, &out, aloneCfg, func() []workload.Stream {
						return []workload.Stream{mix.CoreStream(c, n)}
					})
					if err != nil {
						return out, fmt.Errorf("contention %s alone core %d: %w", cell, c, err)
					}
					aloneCycles[c] = float64(alone.ProcCycles)
					out.records = append(out.records, cyclesRecord(fmt.Sprintf("%s/alone%d", cell, c), alone))
				}
				out.records = append(out.records, record{cell + "/slowdowns",
					fmt.Sprintf("%.9f", stats.Slowdowns(sharedCycles, aloneCycles))})
			}
		}
	}
	return out, nil
}

// characterize: the §8.1–8.2 host-driven flow on a TechniqueDRAM system —
// weak-row profiling with per-channel Bloom filters over a region that
// spans every bank, the Figure 12 minimum-reliable-tRCD grid over the same
// rows, and the reduced-tRCD hook built from the profile, queried once per
// row. No op stream and no CPU model run.

const (
	// characterizeRowsPerBank consecutive rows are profiled in each bank.
	characterizeRowsPerBank = 512
	characterizeFPRate      = 0.001
)

func characterizeInputs(seed uint64) inputs {
	dc := core.TechniqueDRAM()
	banks := dc.BankGroups * dc.BanksPerGroup
	rowBytes := uint64(dc.ColsPerRow) * 64
	// Consecutive row-sized blocks rotate across banks, so a range of
	// banks×R blocks covers R consecutive rows in every bank.
	first := splitmix64(seed) % uint64(dc.RowsPerBank-characterizeRowsPerBank)
	block := uint64(banks) * rowBytes
	return inputs{
		seed:  seed,
		start: first * block,
		end:   (first + characterizeRowsPerBank) * block,
	}
}

func characterizePass(in inputs, t *tracer) (passOut, error) {
	var out passOut
	cfg := core.TimeScalingA57()
	cfg.DRAM = core.TechniqueDRAM()
	cfg.DRAM.Seed = in.seed
	cfg.Scheduler = t.wrapScheduler(cfg.Scheduler)
	nominal := cfg.DRAM.Timing.TRCD
	sp := t.begin("core.newsystem")
	sys, err := core.NewSystem(cfg)
	t.end(sp)
	if err != nil {
		return out, err
	}
	m := sys.Mapper()

	sp = t.begin("techniques.characterize")
	prof, err := techniques.Characterize(sys, in.start, in.end, techniques.ReducedTRCD, characterizeFPRate)
	t.end(sp)
	if err != nil {
		return out, fmt.Errorf("characterize: %w", err)
	}
	rows := rowKeys(m, in.start, in.end)
	mins := make([]clock.PS, len(rows))
	sp = t.begin("techniques.min_trcd")
	for i, key := range rows {
		if mins[i], err = techniques.MinReliableTRCD(sys, key, nominal); err != nil {
			t.end(sp)
			return out, fmt.Errorf("characterize: min tRCD of row %#x: %w", key, err)
		}
	}
	t.end(sp)
	prov := t.wrapTRCD(techniques.ProviderFromProfile(prof, m, techniques.ReducedTRCD))
	reduced := 0
	sp = t.begin("techniques.provider")
	for _, key := range rows {
		if prov(m.Map(key)) == techniques.ReducedTRCD {
			reduced++
		}
	}
	t.end(sp)
	out.c.rows = int64(len(rows))
	out.c.roundtrips = int64(sys.HostRequests())

	weak := map[uint64]bool{}
	var b strings.Builder
	for _, ch := range prof.Channels {
		fmt.Fprintf(&b, "ch%d rows=%d lines=%d weak=%x;", ch.Chan, ch.Rows, ch.LinesTried, ch.WeakRows)
		for _, k := range ch.WeakRows {
			weak[k] = true
			if !ch.Filter.Contains(k) {
				return out, fmt.Errorf("characterize: weak row %#x missing from the channel %d filter", k, ch.Chan)
			}
		}
	}
	// The profile and the grid measure the same rows at the same lowest
	// level, so a row is weak exactly when its minimum tRCD is above it.
	for i, key := range rows {
		if weak[key] != (mins[i] > techniques.ReducedTRCD) {
			return out, fmt.Errorf("characterize: row %#x weak=%v but min tRCD %d ps", key, weak[key], mins[i])
		}
	}
	if reduced > len(rows)-len(weak) {
		return out, fmt.Errorf("characterize: %d rows at reduced tRCD, only %d strong", reduced, len(rows)-len(weak))
	}
	out.records = append(out.records,
		record{"weak_rows", b.String()},
		record{"min_trcd_ps", fmt.Sprint(mins)},
		record{"reduced_trcd_rows", fmt.Sprint(reduced)})

	if t != nil {
		// Run on an empty stream returns the system's cumulative
		// controller, tile and chip counters, host-driven work included.
		res, err := sys.Run(workload.NewSliceStream(nil))
		if err != nil {
			return out, fmt.Errorf("characterize: reading counters: %w", err)
		}
		out.c.addMemSide(res)
		if err := t.replayBloom(prof, in.seed); err != nil {
			return out, err
		}
	}
	return out, nil
}

// rowKeys lists the row key (address of the row's first line) of every
// DRAM row [start, end) touches, ascending.
func rowKeys(m smc.Mapper, start, end uint64) []uint64 {
	seen := map[uint64]bool{}
	var keys []uint64
	for pa := start; pa < end; pa += uint64(m.RowBytes()) {
		a := m.Map(pa)
		a.Col = 0
		k := m.Unmap(a)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// splitmix64 is the seed mixer: nearby seeds give unrelated regions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
