package core

import (
	"testing"

	"easydram/internal/workload"
)

// TestServiceLoopSteadyStateAllocs guards the zero-alloc service loop: once
// a system's buffers have warmed, running more operations must not allocate
// per operation. Engine event queues, the controller request table, Env
// response/readback slices, tile FIFOs, Bender's readback buffer, and the
// timing checker's violation buffer are all reused, so the allocation count
// of a run is (nearly) independent of its length. The test measures two
// runs that differ by thousands of memory operations and bounds the
// marginal allocations per operation close to zero.
func TestServiceLoopSteadyStateAllocs(t *testing.T) {
	mkMisses := func(n int) []workload.Op {
		const span = uint64(1) << 31
		ops := make([]workload.Op, n)
		for i := range ops {
			// The line offset spreads consecutive misses across the
			// channels of the multi-channel rows.
			ops[i] = workload.Op{Kind: workload.OpLoad, Addr: uint64(i)*131072%span + uint64(i%4)*64, Dep: true}
		}
		return ops
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"scaled", TimeScalingA57()},
		{"unscaled", NoTimeScaling()},
		{"scaled-4ch", withTopology(TimeScalingA57(), 4, 1)},
		{"unscaled-4ch", withTopology(NoTimeScaling(), 4, 1)},
	}
	const small, large = 1024, 8192
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			sys, err := NewSystem(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			measure := func(ops []workload.Op) float64 {
				return testing.AllocsPerRun(3, func() {
					if _, err := sys.Run(workload.NewSliceStream(ops)); err != nil {
						t.Fatal(err)
					}
				})
			}
			smallOps, largeOps := mkMisses(small), mkMisses(large)
			measure(largeOps) // warm caches and buffer capacities
			a := measure(smallOps)
			b := measure(largeOps)
			marginal := (b - a) / float64(large-small)
			if marginal > 0.01 {
				t.Fatalf("service loop allocates in steady state: %.0f allocs @ %d ops vs %.0f @ %d (%.4f allocs/op)",
					a, small, b, large, marginal)
			}
		})
	}
}
