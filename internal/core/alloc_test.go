package core

import (
	"testing"

	"easydram/internal/clock"
	"easydram/internal/workload"
)

// TestServiceLoopSteadyStateAllocs guards the zero-alloc service loop: once
// a system's buffers have warmed, running more operations must not allocate
// per operation. Engine event queues, the controller request table, Env
// response slices, tile FIFOs, the timing checker's violation buffer and
// the builder's staged writes are all reused, and access service runs
// Bender with read data discarded, so the allocation count
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

// TestHostProfileSteadyStateAllocs guards the host-driven characterization
// path (hostServe -> serveProfileRow -> Builder -> Bender with buffered
// readback): once the profiled rows hold data and the buffers have warmed,
// a ProfileLine or ProfileRow request allocates nothing, and a stripe
// request allocates only the per-row slice it returns.
func TestHostProfileSteadyStateAllocs(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"scaled", TimeScalingA57()},
		{"unscaled", NoTimeScaling()},
	}
	const rows = 8
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.DRAM = TechniqueDRAM()
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := sys.Mapper()
			rowStride := uint64(m.RowBytes() * m.Banks()) // next row, same bank
			// Write every covered row once: the chip's data store allocates
			// a row's backing on first write.
			if _, _, err := sys.ProfileRowStripe(0, rows, 13500); err != nil {
				t.Fatal(err)
			}
			for _, rcd := range []clock.PS{13500, 9 * clock.Nanosecond} {
				i := 0
				next := func() uint64 { i++; return uint64(i%rows) * rowStride }
				check := func(what string, max float64, f func() error) {
					t.Helper()
					got := testing.AllocsPerRun(2*rows, func() {
						if err := f(); err != nil {
							t.Fatal(err)
						}
					})
					if got > max {
						t.Fatalf("%s at tRCD %v: %.1f allocs per request, want <= %.0f", what, rcd, got, max)
					}
				}
				check("ProfileLine", 0, func() error {
					_, err := sys.ProfileLine(next(), rcd)
					return err
				})
				check("ProfileRow", 0, func() error {
					_, _, err := sys.ProfileRow(next(), rcd)
					return err
				})
				check("ProfileRowStripe", 1, func() error {
					_, _, err := sys.ProfileRowStripe(0, rows, rcd)
					return err
				})
			}
		})
	}
}
