package core

import (
	"errors"
	"strings"
	"testing"

	"easydram/internal/smc"
	"easydram/internal/workload"
)

// Engine edge-case tests beyond the smoke tests in core_test.go.

func TestMarksAndWindow(t *testing.T) {
	ops := []workload.Op{
		{Kind: workload.OpCompute, N: 100},
		{Kind: workload.OpBarrier},
		{Kind: workload.OpMark},
		{Kind: workload.OpCompute, N: 2000},
		{Kind: workload.OpBarrier},
		{Kind: workload.OpMark},
	}
	for _, cfg := range []Config{TimeScalingA57(), NoTimeScaling()} {
		res := mustRun(t, cfg, ops)
		if len(res.Marks) != 2 {
			t.Fatalf("%v: marks = %v", cfg.Scaling, res.Marks)
		}
		w := int64(res.Window())
		wantMin := int64(2000 / cfg.CPU.IssueWidth)
		if w < wantMin || w > wantMin+50 {
			t.Fatalf("window = %d, want ~%d", w, wantMin)
		}
	}
}

func TestPostedWritebacksDrainAtEnd(t *testing.T) {
	// Dirty many conflicting lines so the final state has pending
	// writebacks, then end the stream without a barrier.
	var ops []workload.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpStore, Addr: uint64(i) * (4 << 20)})
	}
	res := mustRun(t, TimeScalingA57(), ops)
	if res.CPU.MemFills != 64 {
		t.Fatalf("fills = %d", res.CPU.MemFills)
	}
	// Every chip write the controller performed must be accounted in the
	// wall clock even though the CPU never waited for them.
	if res.WallTime <= 0 {
		t.Fatalf("wall time not accounted")
	}
}

func TestFenceWaitsForWritebacks(t *testing.T) {
	var ops []workload.Op
	// Dirty a line, flush it (posted writeback), then fence.
	ops = append(ops,
		workload.Op{Kind: workload.OpStore, Addr: 0x40},
		workload.Op{Kind: workload.OpFlush, Addr: 0x40},
		workload.Op{Kind: workload.OpBarrier},
		workload.Op{Kind: workload.OpCompute, N: 10},
	)
	res := mustRun(t, TimeScalingA57(), ops)
	if res.Ctrl.Writes == 0 {
		t.Fatalf("flush writeback never reached the controller")
	}
}

func TestRowCloneThroughEngine(t *testing.T) {
	cfg := TimeScalingA57()
	cfg.DRAM = TechniqueDRAM()
	cfg.DRAM.ClonableFraction = 1
	rowBytes := uint64(8192)
	banks := uint64(16)
	ops := []workload.Op{
		{Kind: workload.OpRowClone, Src: 0, Addr: rowBytes * banks}, // row 0 -> 1, bank 0
	}
	res := mustRun(t, cfg, ops)
	if res.Chip.RowClones != 1 {
		t.Fatalf("chip saw %d clones", res.Chip.RowClones)
	}
	if res.CPU.RowClones != 1 || res.Ctrl.RowClones != 1 {
		t.Fatalf("rowclone not accounted end to end: %+v %+v", res.CPU, res.Ctrl)
	}
}

func TestRefreshAccountedConsistently(t *testing.T) {
	// A long memory-active run must issue refreshes in both clock modes and
	// their counts must agree (deterministic settle rule).
	ops := pointerChase(4000, 1<<20)
	ts := mustRun(t, TimeScaling1GHz(), ops)
	ref := mustRun(t, Reference1GHz(), ops)
	if ts.Ctrl.Refreshes == 0 {
		t.Fatalf("no refreshes in a %v run", ts.EmulatedTime)
	}
	if ts.Ctrl.Refreshes != ref.Ctrl.Refreshes {
		t.Fatalf("refresh counts diverge: %d vs %d", ts.Ctrl.Refreshes, ref.Ctrl.Refreshes)
	}
}

func TestMaxProcCyclesAborts(t *testing.T) {
	cfg := TimeScalingA57()
	cfg.MaxProcCycles = 100
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(workload.NewSliceStream([]workload.Op{{Kind: workload.OpCompute, N: 1_000_000}}))
	if err == nil {
		t.Fatalf("cap did not abort the run")
	}
}

// badPickSched is a deliberately broken user scheduler: pick and burst
// compute Pick's index and PickBurst's indices from the table length. A
// nil burst makes PickBurst return Pick's index alone.
type badPickSched struct {
	pick  func(n int) int
	burst func(n int) []int
}

func (badPickSched) Name() string { return "bad-pick" }

func (s badPickSched) Pick(table []smc.Entry, _ []int) int { return s.pick(len(table)) }

func (s badPickSched) PickBurst(table []smc.Entry, _ []int, _ int, buf []int) []int {
	if s.burst == nil {
		return append(buf, s.pick(len(table)))
	}
	return append(buf, s.burst(len(table))...)
}

// TestBadSchedulerPickIsAnError pins the scheduler contract at the System
// boundary: an out-of-range pick, from Pick with the burst cap off or from
// PickBurst with it on, and a PickBurst that repeats an index, end the run
// with smc.ErrBadPick instead of a panic or a lost request.
func TestBadSchedulerPickIsAnError(t *testing.T) {
	first := func(int) int { return 0 }
	for _, tc := range []struct {
		name  string
		sched badPickSched
		burst bool
	}{
		{"pick-out-of-range", badPickSched{pick: func(n int) int { return n }}, false},
		{"burst-out-of-range", badPickSched{pick: first, burst: func(n int) []int { return []int{n} }}, true},
		{"burst-repeats-first", badPickSched{pick: first, burst: func(int) []int { return []int{0, 0} }}, true},
		{"burst-repeats-last", badPickSched{pick: first, burst: func(n int) []int { return []int{n - 1, n - 1} }}, true},
	} {
		cfg := burstMLP8(TimeScalingA57())
		cfg.Scheduler = tc.sched
		if tc.burst {
			cfg.BurstCap = 8
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(wbRowKernel(2).Stream()); !errors.Is(err, smc.ErrBadPick) {
			t.Errorf("%s: got %v, want smc.ErrBadPick", tc.name, err)
		}
	}
}

// panicSched is a user scheduler with a bug: Pick (or PickBurst) serves
// the oldest-positioned entry a few times, then panics.
type panicSched struct{ left int }

func (*panicSched) Name() string { return "panicky" }

func (s *panicSched) Pick(_ []smc.Entry, _ []int) int {
	if s.left == 0 {
		panic("scheduler bug")
	}
	s.left--
	return 0
}

func (s *panicSched) PickBurst(table []smc.Entry, open []int, _ int, buf []int) []int {
	return append(buf, s.Pick(table, open))
}

// TestSchedulerPanicIsAnError pins the scheduler-panic boundary: a Pick or
// PickBurst that panics ends the run — single-core, with and without the
// burst path, and multi-core — with smc.ErrSchedulerPanic naming the
// scheduler and the panic value, and every later run on that System
// returns the same error.
func TestSchedulerPanicIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cores int
		burst bool
	}{
		{"single-core", 1, false},
		{"single-core-burst", 1, true},
		{"multi-core", 2, false},
	} {
		cfg := burstMLP8(TimeScalingA57())
		cfg.Cores = tc.cores
		cfg.Scheduler = &panicSched{left: 5}
		if tc.burst {
			cfg.BurstCap = 8
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() error {
			strms := make([]workload.Stream, tc.cores)
			for i := range strms {
				strms[i] = workload.OffsetStream(wbRowKernel(4).Stream(), uint64(i)*workload.MixWindowBytes)
			}
			_, err := sys.RunStreams(strms)
			return err
		}
		err = run()
		if !errors.Is(err, smc.ErrSchedulerPanic) {
			t.Fatalf("%s: got %v, want smc.ErrSchedulerPanic", tc.name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "panicky") || !strings.Contains(msg, "scheduler bug") {
			t.Errorf("%s: error %q does not name the scheduler and the panic value", tc.name, msg)
		}
		if again := run(); again != err {
			t.Errorf("%s: later run returned %v, want the first run's error", tc.name, again)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := TimeScalingA57()
	cfg.CPU.IssueWidth = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatalf("bad CPU config must fail")
	}
	cfg = NoTimeScaling()
	cfg.CPU.Clock = TimeScalingA57().CPU.Clock // mismatched with ProcPhys
	if _, err := NewSystem(cfg); err == nil {
		t.Fatalf("unscaled clock mismatch must fail")
	}
	cfg = TimeScalingA57()
	cfg.ModeledCtrlLatency = -1
	if _, err := NewSystem(cfg); err == nil {
		t.Fatalf("negative latency must fail")
	}
	cfg = TimeScalingA57()
	cfg.DRAM.SubarrayRows = 100 // does not divide rows
	if _, err := NewSystem(cfg); err == nil {
		t.Fatalf("bad DRAM config must fail")
	}
}

func TestSimSpeedReported(t *testing.T) {
	res := mustRun(t, TimeScalingA57(), pointerChase(500, 1<<20))
	if res.SimSpeedMHz <= 0 || res.SimSpeedMHz > 101 {
		t.Fatalf("sim speed %.2f MHz implausible", res.SimSpeedMHz)
	}
	if res.GlobalCycles <= 0 {
		t.Fatalf("global cycles not tracked")
	}
}

func TestMPKI(t *testing.T) {
	res := mustRun(t, TimeScalingA57(), pointerChase(1000, 1<<20))
	if res.MPKI() < 500 {
		// Every dependent load misses: MPKI approaches 1000.
		t.Fatalf("MPKI = %.1f for a pure miss stream", res.MPKI())
	}
	var empty Result
	if empty.MPKI() != 0 {
		t.Fatalf("empty result MPKI must be 0")
	}
}

func TestSystemStatePersistsAcrossRuns(t *testing.T) {
	sys, err := NewSystem(TimeScalingA57())
	if err != nil {
		t.Fatal(err)
	}
	warm := []workload.Op{{Kind: workload.OpLoad, Addr: 0x1000}}
	r1, err := sys.Run(workload.NewSliceStream(warm))
	if err != nil {
		t.Fatal(err)
	}
	if r1.CPU.MemReads != 1 {
		t.Fatalf("first touch should miss")
	}
	// The second run reuses the same caches: now it hits.
	r2, err := sys.Run(workload.NewSliceStream(warm))
	if err != nil {
		t.Fatal(err)
	}
	if r2.CPU.MemReads != 0 { // per-run CPU stats: the warm cache hits
		t.Fatalf("second run should hit the warm cache (mem reads = %d)", r2.CPU.MemReads)
	}
}

func TestClosedPagePolicyEndToEnd(t *testing.T) {
	// Sequential reads within one row: open-page turns them into row hits;
	// closed-page pays an activate per access.
	var ops []workload.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpLoad, Addr: uint64(i) * 64, Dep: true})
	}
	open := TimeScalingA57()
	open.RefreshEnabled = false
	closed := open
	closed.Policy = smc.ClosedPage
	ro := mustRun(t, open, ops)
	rc := mustRun(t, closed, ops)
	if ro.Ctrl.RowHits == 0 {
		t.Fatalf("open-page saw no row hits")
	}
	if rc.Ctrl.RowHits != 0 {
		t.Fatalf("closed-page saw %d row hits", rc.Ctrl.RowHits)
	}
	if rc.ProcCycles <= ro.ProcCycles {
		t.Fatalf("closed-page (%d) should be slower than open-page (%d) on row-friendly traffic",
			rc.ProcCycles, ro.ProcCycles)
	}
}

func TestPrefetcherEndToEnd(t *testing.T) {
	var ops []workload.Op
	for i := 0; i < 2048; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpLoad, Addr: uint64(i) * 64, Dep: true})
	}
	base := TimeScalingA57()
	pf := base
	pf.CPU.NextLinePrefetch = true
	r0 := mustRun(t, base, ops)
	r1 := mustRun(t, pf, ops)
	if r1.CPU.Prefetches == 0 {
		t.Fatalf("prefetcher never fired")
	}
	if r1.ProcCycles >= r0.ProcCycles {
		t.Fatalf("prefetcher (%d) should beat the baseline (%d) on a sequential chase",
			r1.ProcCycles, r0.ProcCycles)
	}
}
