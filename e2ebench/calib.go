package main

import (
	"math"
	"time"
)

// The shared host this benchmark was written on changes speed by up to
// 1.6x over minutes as other tenants come and go, for every program alike.
// Raw seconds would then compare the moments two runs happened at rather
// than the code, so each time metric is scaled to a reference host speed:
// a fixed synthetic load that runs none of the repository's code is timed
// before every pass, and a run's times are multiplied by
// calibRefS / (median calibration time of the run). The raw figures are
// printed on standard error.

// calibRefS is the calibration time that defines the reference host
// speed; it is about the median on the 2-CPU host the baseline in
// LEDGER.md was recorded on.
const calibRefS = 0.030

const (
	calibSlab  = 4096
	calibSlabs = 4
)

// calibrate returns the geometric mean of two loads' wall times: a
// two-goroutine pipeline like the workload generator's, which pays for
// cross-CPU hand-offs, and a scatter across a table larger than the
// caches. Of the loads tried on the host the benchmark was written on,
// these two tracked the passes' own speed swings best; an independent
// cache-resident walk per CPU barely did. Buffers are allocated per call
// and dropped, so they are garbage before the pass that follows and never
// change the measured program's heap.
func calibrate() float64 {
	t0 := time.Now()
	pipe()
	t1 := time.Now()
	scatter()
	t2 := time.Now()
	return math.Sqrt(t1.Sub(t0).Seconds() * t2.Sub(t1).Seconds())
}

// scatter allocates a 64 MiB table, well past the per-core L2, and makes
// random read-modify-writes across it: page faults, memory clearing and
// DRAM latency, which the characterize workload's data store pays for.
func scatter() {
	table := make([]uint64, 8<<20)
	x := uint64(11)
	for i := 0; i < 1_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[x>>41] += x
	}
	calibSink = table[5]
}

var calibSink uint64

// pipe has a producer fill slabs and hand them over a channel to a
// consumer that scatters them into a 4 MiB table.
func pipe() {
	free := make(chan []uint64, calibSlabs)
	for i := 0; i < calibSlabs; i++ {
		free <- make([]uint64, calibSlab)
	}
	full := make(chan []uint64, calibSlabs)
	big := make([]uint64, 1<<19) // 4 MiB
	go func() {
		x := uint64(7)
		for n := 0; n < 1000; n++ {
			slab := <-free
			for i := range slab {
				x = x*6364136223846793005 + 1442695040888963407
				slab[i] = x
			}
			full <- slab
		}
		close(full)
	}()
	for slab := range full {
		for _, v := range slab {
			big[v>>45] += v
		}
		free <- slab
	}
}
