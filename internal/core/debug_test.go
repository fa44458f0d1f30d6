package core

import (
	"testing"

	"easydram/internal/workload"
)

// TestDebugDivergence is a scratch diagnostic comparing the two clock modes on
// progressively richer op mixes (kept because it pins down exactly which
// op classes the two accounting schemes agree on).
func TestDebugDivergence(t *testing.T) {
	cases := map[string][]workload.Op{
		"pure-compute": {{Kind: workload.OpCompute, N: 100000}},
		"dep-misses":   pointerChase(200, 1<<20),
		"indep-misses": func() []workload.Op {
			var ops []workload.Op
			for i := 0; i < 200; i++ {
				ops = append(ops, workload.Op{Kind: workload.OpLoad, Addr: uint64(i) << 20})
			}
			return ops
		}(),
		"stores": func() []workload.Op {
			var ops []workload.Op
			for i := 0; i < 200; i++ {
				ops = append(ops, workload.Op{Kind: workload.OpStore, Addr: uint64(i) << 20})
			}
			return ops
		}(),
		"compute+miss": func() []workload.Op {
			var ops []workload.Op
			for i := 0; i < 200; i++ {
				ops = append(ops,
					workload.Op{Kind: workload.OpCompute, N: 200},
					workload.Op{Kind: workload.OpLoad, Addr: uint64(i) << 20, Dep: true},
				)
			}
			return ops
		}(),
	}
	for name, ops := range cases {
		ts := mustRun(t, TimeScaling1GHz(), ops)
		ref := mustRun(t, Reference1GHz(), ops)
		d := float64(ts.ProcCycles-ref.ProcCycles) / float64(ref.ProcCycles) * 100
		t.Logf("%-14s ts=%8d ref=%8d diff=%+.3f%% (tsRefresh=%d refRefresh=%d)",
			name, ts.ProcCycles, ref.ProcCycles, d, ts.Ctrl.Refreshes, ref.Ctrl.Refreshes)
	}
}
