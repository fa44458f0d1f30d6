package difffuzz

import (
	"easydram/internal/core"
	"easydram/internal/workload"
)

// maxMinimizeRuns bounds the case runs one minimization may consume: each
// candidate costs a full RunCase, and a pathological failure that keeps
// reproducing at every shrink could otherwise walk the whole lattice.
const maxMinimizeRuns = 128

// shrinkers is the transform set Minimize drives: each proposes a strictly
// simpler case (toward smaller kernels and zero-valued axes) or reports
// no-op. Order matters for output quality, not correctness: big structural
// drops (faults, mitigation, topology) go first so later kernel shrinks
// re-validate against the simplest surviving config.
var shrinkers = []struct {
	name  string
	apply func(c Case) (Case, bool)
}{
	{"drop-faults", func(c Case) (Case, bool) {
		if !c.Faults.Enabled() && !c.Faults.Recovery {
			return c, false
		}
		c.Faults = FaultAxes{}
		return c, true
	}},
	{"drop-mitigation", func(c Case) (Case, bool) {
		if c.Mitigation == "" {
			return c, false
		}
		c.Mitigation = ""
		return c, true
	}},
	{"drop-link", func(c Case) (Case, bool) {
		if c.Faults.LinkFailRate == 0 && c.Faults.LinkCorruptRate == 0 && c.Faults.LinkDropRate == 0 {
			return c, false
		}
		c.Faults.LinkFailRate, c.Faults.LinkCorruptRate, c.Faults.LinkDropRate = 0, 0, 0
		return c, true
	}},
	{"drop-chip-rates", func(c Case) (Case, bool) {
		if c.Faults.TransientRate == 0 && c.Faults.StuckAtRate == 0 {
			return c, false
		}
		c.Faults.TransientRate, c.Faults.StuckAtRate = 0, 0
		return c, true
	}},
	{"drop-disturb", func(c Case) (Case, bool) {
		if c.Faults.DisturbThreshold == 0 {
			return c, false
		}
		c.Faults.DisturbThreshold, c.Faults.DisturbJitter = 0, 0
		return c, true
	}},
	{"drop-recovery", func(c Case) (Case, bool) {
		// Valid only once link exec failures are gone (fault.Config.Validate
		// requires recovery with them); an invalid candidate simply fails a
		// different check and is rejected.
		if !c.Faults.Recovery {
			return c, false
		}
		c.Faults.Recovery = false
		return c, true
	}},
	{"halve-channels", func(c Case) (Case, bool) {
		if c.Channels <= 1 {
			return c, false
		}
		c.Channels /= 2
		return c, true
	}},
	{"drop-ranks", func(c Case) (Case, bool) {
		if c.Ranks <= 1 {
			return c, false
		}
		c.Ranks = 1
		return c, true
	}},
	{"line-interleave", func(c Case) (Case, bool) {
		if c.Interleave == "line" {
			return c, false
		}
		c.Interleave = "line"
		return c, true
	}},
	{"default-scheduler", func(c Case) (Case, bool) {
		if c.Scheduler == "fr-fcfs" || c.Scheduler == "" {
			return c, false
		}
		c.Scheduler = "fr-fcfs"
		return c, true
	}},
	{"drop-burst", func(c Case) (Case, bool) {
		if c.BurstCap == 0 {
			return c, false
		}
		c.BurstCap = 0
		return c, true
	}},
	{"halve-burst", func(c Case) (Case, bool) {
		if c.BurstCap < 4 {
			return c, false
		}
		c.BurstCap /= 2
		return c, true
	}},
	{"drop-cores", func(c Case) (Case, bool) {
		// Disarming the multi-core axis puts the case back on the unchanged
		// single-core engine; a contention-dependent failure rejects the
		// shrink, a single-core one keeps reproducing on a simpler system.
		if c.Cores == 0 {
			return c, false
		}
		c.Cores = 0
		return c, true
	}},
	{"drop-checkpoint", func(c Case) (Case, bool) {
		// Disarming the checkpoint axis drops two runs per candidate; a
		// checkpoint-identity failure rejects the shrink (the check would no
		// longer fire), so the failure itself is safe.
		if c.CheckpointFrac == 0 {
			return c, false
		}
		c.CheckpointFrac = 0
		return c, true
	}},
	{"drop-refresh", func(c Case) (Case, bool) {
		if !c.Refresh {
			return c, false
		}
		c.Refresh = false
		return c, true
	}},
	{"shrink-kernel", func(c Case) (Case, bool) {
		min := workload.MinKernelDim(c.Kernel)
		if c.KernelDim <= min {
			return c, false
		}
		d := c.KernelDim * 3 / 4
		if d < min {
			d = min
		}
		c.KernelDim = d
		return c, true
	}},
}

// Minimize shrinks a failing case while its failure reproduces: each
// transform moves one axis toward its zero value (or the kernel toward its
// minimum size) and is kept only if RunCase still fails the SAME check —
// so an envelope breach stays an envelope breach, never drifting into a
// different bug. The walk repeats until a full pass accepts nothing (or
// the run budget is spent). Returns the minimized case, its final failing
// report, and the number of candidate runs consumed.
//
// mutate must be the same hook the failure was found with: minimizing a
// planted-bug failure without re-planting the bug would shrink to nothing.
func Minimize(c Case, mutate func(*core.Config)) (Case, Report, int) {
	rep := RunCase(c, mutate)
	runs := 1
	if rep.Failure == nil {
		return c, rep, runs
	}
	check := rep.Failure.Check

	for runs < maxMinimizeRuns {
		improved := false
		for _, sh := range shrinkers {
			if runs >= maxMinimizeRuns {
				break
			}
			cand, changed := sh.apply(c)
			if !changed {
				continue
			}
			candRep := RunCase(cand, mutate)
			runs++
			if candRep.Failure != nil && candRep.Failure.Check == check {
				c, rep = cand, candRep
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return c, rep, runs
}
