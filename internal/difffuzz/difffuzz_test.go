package difffuzz

import (
	"encoding/json"
	"sync"
	"testing"

	"easydram/internal/core"
	"easydram/internal/smc"
)

// tier1 memoizes the canonical sweep: the envelope test and the
// worker-determinism test share one run of it instead of re-sweeping.
var tier1 = struct {
	once sync.Once
	res  *SweepResult
}{}

func tier1Sweep() *SweepResult {
	tier1.once.Do(func() {
		tier1.res = Sweep(SweepOptions{Seed: DefaultSeed, Cases: DefaultCases})
	})
	return tier1.res
}

// TestTier1Sweep is the deterministic config-space sweep that runs in
// go test ./...: 64 seeded cases across topology, scheduler, burst,
// refresh, time-scaling, fault, and mitigation axes, every one holding its
// invariants and the comparable ones holding the paper's <1% max / 0.1%
// avg cycle-error envelope against the direct-simulation baseline.
func TestTier1Sweep(t *testing.T) {
	res := tier1Sweep()
	t.Log(res.Summary())
	for _, i := range res.Failures {
		r := res.Reports[i]
		t.Errorf("case %d (seed %#x) [%s]\n  %s: %s", i, r.Case.Seed, r.Case, r.Failure.Check, r.Failure.Detail)
	}
	if res.Comparable == 0 {
		t.Fatal("sweep judged no case against the envelope; the comparable predicate or the decoder bias is broken")
	}
	if res.MaxErrPct >= EnvelopeMaxPct {
		t.Errorf("max cycle error %.4f%% breaches the paper's %.1f%% bound", res.MaxErrPct, EnvelopeMaxPct)
	}
	if res.AvgErrPct >= EnvelopeAvgPct {
		t.Errorf("avg cycle error %.4f%% breaches the paper's %.1f%% bound", res.AvgErrPct, EnvelopeAvgPct)
	}
}

// TestSweepDeterministicAcrossWorkerCounts pins the acceptance contract:
// the same seed reproduces the same cases byte-identically at any worker
// count (reports land in index-addressed slots; the digest folds them in
// case order).
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	want := tier1Sweep().Digest
	for _, workers := range []int{1, 3} {
		res := Sweep(SweepOptions{Seed: DefaultSeed, Cases: DefaultCases, Workers: workers})
		if res.Digest != want {
			t.Errorf("workers=%d digest %s != default-pool digest %s", workers, res.Digest, want)
		}
	}
}

// TestMultiCoreCaseReplay replays the multi-core axis directly: the first
// few decoded cases that arm Cores run the full check set, which for them
// includes request conservation on the merged traffic and the run-to-run
// determinism double-run of the multi-core merge loop.
func TestMultiCoreCaseReplay(t *testing.T) {
	checked := 0
	for seed := uint64(0); seed < 4096 && checked < 4; seed++ {
		c := Decode(seed)
		if c.Cores <= 1 {
			continue
		}
		checked++
		rep := RunCase(c, nil)
		if rep.Failure != nil {
			t.Errorf("seed %#x [%s]\n  %s: %s", seed, c, rep.Failure.Check, rep.Failure.Detail)
		}
		if rep.Comparable {
			t.Errorf("seed %#x: multi-core case must not be envelope-judged", seed)
		}
	}
	if checked == 0 {
		t.Fatal("no seed in 0..4095 armed the multi-core axis; the decoder draw is broken")
	}
}

// TestDecodeIsPureAndRoundTrips pins the case encoding: decoding is a pure
// function of the seed, every decoded case builds a valid system and
// kernel, and the JSON form (the regression corpus format) round-trips to
// an identical case.
func TestDecodeIsPureAndRoundTrips(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		c := Decode(seed)
		if again := Decode(seed); again != c {
			t.Fatalf("seed %d decoded differently twice:\n%+v\n%+v", seed, c, again)
		}
		if _, err := c.Workload(); err != nil {
			t.Fatalf("seed %d: kernel does not build: %v", seed, err)
		}
		cfg, err := c.SystemConfig()
		if err != nil {
			t.Fatalf("seed %d: config does not build: %v", seed, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("seed %d decodes to an invalid config: %v\ncase: %s", seed, err, c)
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var rt Case
		if err := json.Unmarshal(b, &rt); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		if rt != c {
			t.Fatalf("seed %d: JSON round trip changed the case:\n%+v\n%+v", seed, c, rt)
		}
	}
}

// TestDecodeReservedOrdinalStable pins Decode for seeds whose retired
// host-parallelism draw fires: the reserved ordinals keep being consumed, so
// the axes drawn after them decode exactly as they always have.
func TestDecodeReservedOrdinalStable(t *testing.T) {
	for _, want := range []struct {
		seed                                uint64
		channels, cores, ckptFrac, burstCap int
	}{
		{seed: 2, channels: 4, cores: 2},
		{seed: 17, channels: 4, cores: 3},
		{seed: 62, channels: 2, ckptFrac: 6, burstCap: 4},
		{seed: 63, channels: 4, ckptFrac: 4, burstCap: 16},
		{seed: 117, channels: 2, ckptFrac: 2, burstCap: 4},
		{seed: 138, channels: 4, ckptFrac: 6, burstCap: 8},
	} {
		c := Decode(want.seed)
		if c.Channels != want.channels || c.Cores != want.cores ||
			c.CheckpointFrac != want.ckptFrac || c.BurstCap != want.burstCap {
			t.Errorf("seed %d decoded to channels=%d cores=%d ckpt=%d burst=%d, want %d/%d/%d/%d",
				want.seed, c.Channels, c.Cores, c.CheckpointFrac, c.BurstCap,
				want.channels, want.cores, want.ckptFrac, want.burstCap)
		}
	}
}

// TestDecodeCoversEveryAxis guards the decoder's distribution: a refactor
// that silently collapses an axis (every case single-channel, faults never
// drawn, TRR unreachable) would turn the sweep into golden-config testing
// with extra steps.
func TestDecodeCoversEveryAxis(t *testing.T) {
	seen := map[string]bool{}
	kernels := map[string]bool{}
	for seed := uint64(0); seed < 512; seed++ {
		c := Decode(seed)
		kernels[c.Kernel] = true
		if c.Channels > 1 {
			seen["multi-channel"] = true
		}
		if c.Ranks > 1 {
			seen["multi-rank"] = true
		}
		if c.Interleave == "row" {
			seen["row-interleave"] = true
		}
		if c.Scheduler == "fcfs" {
			seen["fcfs"] = true
		}
		if c.Scheduler == "bliss" {
			seen["bliss"] = true
		}
		if c.BurstCap > 0 {
			seen["burst"] = true
		}
		if !c.Refresh {
			seen["refresh-off"] = true
		}
		if !c.TimeScaling {
			seen["direct-mode"] = true
		}
		if c.Faults.Enabled() {
			seen["faults"] = true
		}
		if c.Faults.DisturbThreshold > 0 {
			seen["disturb"] = true
		}
		if c.Faults.LinkFailRate > 0 {
			seen["link-faults"] = true
		}
		if c.Mitigation == "para" {
			seen["para"] = true
		}
		if c.Mitigation == "trr" {
			seen["trr"] = true
		}
		if c.Comparable() {
			seen["comparable"] = true
		}
		if c.CheckpointFrac > 0 {
			seen["checkpoint"] = true
		}
		if c.Cores > 1 {
			seen["multi-core"] = true
		}
	}
	for _, axis := range []string{
		"multi-channel", "multi-rank", "row-interleave", "fcfs", "bliss", "burst",
		"refresh-off", "direct-mode", "faults", "disturb", "link-faults", "para",
		"trr", "comparable", "checkpoint", "multi-core",
	} {
		if !seen[axis] {
			t.Errorf("512 seeds never drew axis %q", axis)
		}
	}
	if len(kernels) < 6 {
		t.Errorf("512 seeds drew only %d distinct kernels: %v", len(kernels), kernels)
	}
}

// lifoSched is the deliberately broken scheduler of the acceptance
// criteria: a legal-looking policy (always serve the NEWEST request) whose
// emulated timing diverges from the baseline's — exactly the class of bug
// the differential envelope exists to catch.
type lifoSched struct{}

func (lifoSched) Name() string { return "lifo-broken" }

func (lifoSched) Pick(table []smc.Entry, openRows []int) int {
	newest := 0
	for i := range table {
		if table[i].Seq > table[newest].Seq {
			newest = i
		}
	}
	return newest
}

func (lifoSched) CloneForChannel() smc.Scheduler { return lifoSched{} }

// TestBrokenSchedulerCaughtAndMinimized plants lifoSched into every
// EasyDRAM-side config (never the baseline), proves the sweep catches the
// divergence, minimizes the first failing case, and replays the minimized
// JSON — the full triage loop a real harness catch would go through.
func TestBrokenSchedulerCaughtAndMinimized(t *testing.T) {
	mutate := func(cfg *core.Config) { cfg.Scheduler = lifoSched{} }

	res := Sweep(SweepOptions{Seed: DefaultSeed, Cases: 32, Mutate: mutate})
	var found *Report
	for _, i := range res.Failures {
		if r := res.Reports[i]; r.Failure.Check == "envelope" {
			found = &r
			break
		}
	}
	if found == nil {
		t.Fatalf("planted broken scheduler was not caught by the envelope: %s", res.Summary())
	}
	t.Logf("caught: [%s] %s", found.Case, found.Failure.Detail)

	minC, minRep, runs := Minimize(found.Case, mutate)
	if minRep.Failure == nil || minRep.Failure.Check != "envelope" {
		t.Fatalf("minimization lost the failure: %+v", minRep.Failure)
	}
	if minC.KernelDim > found.Case.KernelDim || minC.Channels > found.Case.Channels ||
		minC.Ranks > found.Case.Ranks || minC.BurstCap > found.Case.BurstCap {
		t.Errorf("minimized case grew: %s -> %s", found.Case, minC)
	}
	t.Logf("minimized in %d runs: [%s] %s", runs, minC, minRep.Failure.Detail)

	// Serialize, reload, replay: the failure must reproduce from JSON alone.
	dir := t.TempDir()
	path, err := Save(dir, Regression{
		Case: minC, Check: minRep.Failure.Check, Detail: minRep.Failure.Detail,
		Note: "planted lifo scheduler (test-only)",
	})
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	regs, err := Load(dir)
	if err != nil || len(regs) != 1 {
		t.Fatalf("load %s: %v (%d regressions)", path, err, len(regs))
	}
	replay := RunCase(regs[0].Case, mutate)
	if replay.Failure == nil || replay.Failure.Check != "envelope" {
		t.Fatalf("replayed regression did not reproduce: %+v", replay.Failure)
	}
	// And with the bug unplanted, the same case is green — the failure was
	// the mutation, not the harness.
	if clean := RunCase(regs[0].Case, nil); clean.Failure != nil {
		t.Fatalf("minimized case fails even without the planted bug: %s: %s",
			clean.Failure.Check, clean.Failure.Detail)
	}
}

// TestMinimizeKeepsPassingCase pins the no-failure fast path.
func TestMinimizeKeepsPassingCase(t *testing.T) {
	c := Decode(DefaultSeed)
	minC, rep, runs := Minimize(c, nil)
	if rep.Failure != nil {
		t.Fatalf("canonical case fails: %s: %s", rep.Failure.Check, rep.Failure.Detail)
	}
	if minC != c || runs != 1 {
		t.Errorf("minimizing a passing case changed it (runs %d)", runs)
	}
}

// TestRegressionCorpus replays every committed regression as a named
// subtest: a case the harness once caught must stay green forever.
func TestRegressionCorpus(t *testing.T) {
	regs, err := Load(RegressionsDir)
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	if len(regs) == 0 {
		t.Skip("no committed regressions")
	}
	for _, reg := range regs {
		t.Run(reg.Name(), func(t *testing.T) {
			rep := RunCase(reg.Case, nil)
			if rep.Failure != nil {
				t.Errorf("committed regression resurfaced (%s)\n  originally: %s: %s\n  now: %s: %s\n  case: %s",
					reg.Note, reg.Check, reg.Detail, rep.Failure.Check, rep.Failure.Detail, reg.Case)
			}
		})
	}
}
