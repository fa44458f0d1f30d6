package core

import (
	"easydram/internal/clock"
	"easydram/internal/mem"
	"easydram/internal/snapshot"
	"easydram/internal/timescale"
)

// The engine runs one set of loops for both emulation modes; what differs
// between time-scaled emulation and the direct (unscaled) modes lives here.
//
//   - keyDomain: the integer time base of every event key (release points,
//     arrival keys, merge keys): emulated processor cycles when scaling,
//     wall picoseconds otherwise.
//   - clockPolicy: the processor clock a single-core run advances, the
//     service math that advances a channel's service chain for one served
//     request, the fence point, and how an issued request becomes visible
//     to its controller. Time scaling implements Figures 5 and 6 on the
//     timescale counters; direct emulation is the wall busy chain of the
//     PiDRAM-style "No Time Scaling" mode and the §6 hardware-MC reference.

// keyDomain converts between event keys, processor cycles and time. A key
// unit is unit picoseconds and one processor cycle spans cycle key units:
// scaled runs key on emulated processor cycles (cycle 1, unit the emulated
// period), direct runs on wall picoseconds (unit 1, cycle the processor
// period). The conversions run several times per core step, so each skips
// its integer division when the divisor is 1.
type keyDomain struct{ unit, cycle int64 }

// cycles reports the processor cycle key k falls in.
func (d keyDomain) cycles(k int64) clock.Cycles {
	if d.cycle == 1 {
		return clock.Cycles(k)
	}
	return clock.Cycles(k / d.cycle)
}

// span reports the key distance of n processor cycles.
func (d keyDomain) span(n clock.Cycles) int64 { return int64(n) * d.cycle }

// edge reports the first processor clock edge at or after k: a processor
// consumes a response at an edge, never between two.
func (d keyDomain) edge(k int64) int64 { return d.span(d.until(0, k)) }

// until reports the processor cycles from key from up to the edge at or
// after key to.
func (d keyDomain) until(from, to int64) clock.Cycles {
	if d.cycle == 1 {
		return clock.Cycles(to - from)
	}
	return clock.Cycles((to - from + d.cycle - 1) / d.cycle)
}

// time reports the time of key k.
func (d keyDomain) time(k int64) clock.PS { return clock.PS(k * d.unit) }

// floor reports the last key at or before time t (t >= 0).
func (d keyDomain) floor(t clock.PS) int64 {
	if d.unit == 1 {
		return int64(t)
	}
	return int64(t) / d.unit
}

// ceil reports the first key at or after time t (t >= 0).
func (d keyDomain) ceil(t clock.PS) int64 {
	if d.unit == 1 {
		return int64(t)
	}
	return (int64(t) + d.unit - 1) / d.unit
}

// unbounded is the processor budget of a clock that never gates the core
// (cpu.Core.Step caps any budget at its own batch bound).
const unbounded = clock.Cycles(1) << 62

// clockPolicy is the mode-specific half of the engine. Keys are in the
// engine's keyDomain. now, allowance, advance, jump, idle and fencePoint
// drive a single-core run's processor clock; the rest serve both the
// single-core loop and the multi-core merge.
//
// Time scaling (ts non-nil, Figure 5): the processor clock is the
// timescale counters' Proc, gated by critical mode against the MC counter;
// SMC and Bender time cost only FPGA wall time. Each channel's chain is its
// modeled-MC service point, and the shared MC counter is kept at their
// maximum, so channels serving in parallel overlap in emulated time exactly
// as independent controllers would (with one channel the chain and the
// counter are equal).
//
// Direct emulation (ts nil): the processor follows the wall clock at its
// own frequency, and each channel's SMC is a serial resource whose busy
// chain advances by the SMC's charged time — zero under HardwareMC — plus
// the modeled occupancy, so the software controller's real latency is
// visible to the processor; with several channels their chains overlap in
// wall time. Issued requests are staged until their wall-clock arrival.
//
// The policy is one type that branches on the mode rather than an
// interface with one implementation per mode: the loops call it several
// times per core step, and direct calls let the small methods inline.
type clockPolicy struct {
	fpga clock.Clock
	// hwmc zeroes the SMC's cost (the §6 hardware-controller reference).
	hwmc bool
	// extra is the modeled per-response latency on top of what the
	// controller accounted: the interconnect path, plus the modeled
	// controller's decision latency whenever emulated time charges it
	// (time scaling, or the hardware-MC reference).
	extra clock.PS
	// chain is the engine's per-channel service chains, which serve
	// advances.
	chain []clock.PS

	// ts is the time-scaling counter file; nil selects direct emulation.
	ts *timescale.Counters
	// direct marks a single-core time-scaled run: issues enter the tile
	// FIFO at once and put the SMC in critical mode.
	direct bool
	// maxRelease is the latest release of any response: what a
	// time-scaled fence waits out.
	maxRelease clock.Cycles

	// period is the processor clock period of direct emulation; wall is a
	// single-core direct run's processor position, and maxWall the latest
	// completion of any SMC work: what a direct fence waits out.
	// procCycles and globalFinal are a finished direct run's totals.
	period, wall, maxWall   clock.PS
	procCycles, globalFinal clock.Cycles
}

// newClock builds cfg's clock policy and its key domain. chain is the
// engine's per-channel service chains: each channel's exact service point,
// when its controller is next free to start a service. direct selects the
// single-core time-scaled issue path (critical mode, no staging).
func newClock(cfg Config, chain []clock.PS, direct bool) (*clockPolicy, keyDomain, error) {
	c := &clockPolicy{fpga: cfg.FPGA, hwmc: cfg.HardwareMC, extra: cfg.MemPathLatency, chain: chain}
	if cfg.Scaling || cfg.HardwareMC {
		c.extra += cfg.ModeledCtrlLatency
	}
	if !cfg.Scaling {
		c.period = cfg.ProcPhys.Period()
		return c, keyDomain{unit: 1, cycle: int64(c.period)}, nil
	}
	ts, err := timescale.New(cfg.FPGA, cfg.ProcPhys, cfg.CPU.Clock, true)
	if err != nil {
		return nil, keyDomain{}, err
	}
	c.ts, c.direct = ts, direct
	return c, keyDomain{unit: int64(cfg.CPU.Clock.Period()), cycle: 1}, nil
}

// now is the processor's position as an event key.
func (c *clockPolicy) now() int64 {
	if c.ts != nil {
		return int64(c.ts.Proc())
	}
	return int64(c.wall)
}

// allowance is how many cycles the processor may run before the SMC must
// step; 0 stalls it. Only critical mode gates the processor.
func (c *clockPolicy) allowance() clock.Cycles {
	if c.ts != nil {
		return c.ts.ProcAllowance()
	}
	return unbounded
}

// advance runs the processor n cycles.
func (c *clockPolicy) advance(n clock.Cycles) {
	if c.ts != nil {
		c.ts.AdvanceProc(n)
	} else {
		c.wall += clock.PS(n) * c.period
	}
}

// jump moves the processor forward to key (a no-op when it is already
// there).
func (c *clockPolicy) jump(key int64) {
	if c.ts != nil {
		c.ts.JumpProcTo(clock.Cycles(key))
	} else {
		c.wall = max(c.wall, clock.PS(key))
	}
}

// idle runs when no channel has work but a response with the given release
// key is ready. A time-scaled processor jumps to it so the response
// matures; a direct one is already running toward it.
func (c *clockPolicy) idle(release int64) {
	if c.ts != nil {
		c.ts.JumpProcTo(clock.Cycles(release))
	}
}

// fencePoint is the key a completing fence moves the processor to.
func (c *clockPolicy) fencePoint() int64 {
	if c.ts != nil {
		return int64(c.maxRelease)
	}
	return int64(c.maxWall)
}

// consumeFirst reports whether a fenced processor consumes a ready
// response before the SMC steps again (time scaling), or lets the SMC run
// until nothing is in flight (direct).
func (c *clockPolicy) consumeFirst() bool { return c.ts != nil }

// ingestFirst reports whether a merge step makes arrived requests visible
// before settling the channel's due refreshes (time scaling) or after
// (direct).
func (c *clockPolicy) ingestFirst() bool { return c.ts != nil }

// stepTime is the emulated time channel ch's controller steps at when the
// engine is at key now: under time scaling the chain's MC cycle, the
// emulation point the controller has worked up to; directly, the later of
// now and the channel's free point.
func (c *clockPolicy) stepTime(ch int, now int64) clock.PS {
	if c.ts != nil {
		p := c.ts.ProcEmul
		return p.ToTime(p.CyclesFloor(c.chain[ch]))
	}
	return max(clock.PS(now), c.chain[ch])
}

// smcTime is the wall time of charged programmable-core cycles.
func (c *clockPolicy) smcTime(charged int64) clock.PS {
	if c.hwmc {
		return 0
	}
	return clock.PS(charged) * c.fpga.Period()
}

// smcOccupancy is the part of charged SMC cycles that occupies a channel's
// service chain (burst gates project chains with it): none of it under
// time scaling, all of it directly.
func (c *clockPolicy) smcOccupancy(charged int64) clock.PS {
	if c.ts != nil {
		return 0
	}
	return c.smcTime(charged)
}

// serve chains one service onto channel ch's service chain — a request
// (responses > 0) that arrived at key arrival, or a refresh — and returns
// the release key of its responses. charged is the SMC's programmable-core
// cycles, wall the Bender program's bus time, occ and lat the modeled
// occupancy and latency. The service starts at max(chain, arrival) and
// occupies the chain for occ; its responses release at start + lat, never
// before the occupancy ends.
func (c *clockPolicy) serve(ch int, arrival, charged int64, wall, occ, lat clock.PS, responses int) int64 {
	smc := c.smcTime(charged)
	lat += c.extra * clock.PS(responses)
	if c.ts != nil {
		// The processor is clock-gated through the SMC and Bender time,
		// which costs only FPGA wall time; the chain is the modeled MC
		// resource (timescale.Counters.ServeModeled, per channel).
		c.ts.AdvanceWall(smc + wall)
		start := max(c.chain[ch], c.ts.ProcEmul.ToTime(clock.Cycles(arrival)))
		c.chain[ch] = start + occ
		c.ts.RaiseMCTime(c.chain[ch])
		release := c.ts.ProcEmul.CyclesCeil(start + max(lat, occ))
		if responses > 0 {
			c.maxRelease = max(c.maxRelease, release)
		}
		return int64(release)
	}
	// The raw software MC is itself the serial resource, so its time
	// appears in both the occupancy and the latency.
	start := max(c.chain[ch], clock.PS(arrival))
	completion := start + smc + occ
	c.chain[ch] = completion
	c.maxWall = max(c.maxWall, completion)
	return int64(max(start+smc+lat, completion))
}

// admit makes a request visible to channel ch's controller at once and
// reports true (single-core time scaling, which enters critical mode), or
// reports false and leaves it to be staged until its arrival.
func (c *clockPolicy) admit(ch *sysChannel, req *mem.Request) bool {
	if !c.direct {
		return false
	}
	ch.tile.PushRequest(req)
	c.ts.EnterCritical()
	return true
}

// drained runs when a channel step settles the last request in flight:
// the SMC leaves critical mode.
func (c *clockPolicy) drained() {
	if c.ts != nil && c.ts.Critical() {
		c.ts.ExitCritical()
	}
}

// finish closes the run: proc is its processor cycle count, end the last
// event key any core reached. Under time scaling it moves the processor
// counter to proc — a merge run keeps it at zero until here, so
// GlobalCycles covers the processor time once, as a single-core run's
// incremental advances do; directly, the run's wall time covers end and
// every channel's service chain.
func (c *clockPolicy) finish(proc clock.Cycles, end int64) {
	if c.ts != nil {
		c.ts.JumpProcTo(proc)
		return
	}
	final := max(c.wall, clock.PS(end))
	for _, f := range c.chain {
		final = max(final, f)
	}
	c.procCycles = proc
	c.globalFinal = c.fpga.CyclesCeil(final)
}

// totals reports the finished run's processor cycles, FPGA cycles and FPGA
// wall time.
func (c *clockPolicy) totals() (proc, global clock.Cycles, wall clock.PS) {
	if c.ts != nil {
		return c.ts.Proc(), c.ts.Global(), c.ts.WallTime()
	}
	return c.procCycles, c.globalFinal, c.fpga.ToTime(c.globalFinal)
}

// save writes the policy's state to the checkpoint's engine section, after
// its mode and channel-count header, in one layout for both modes: the
// mode's clock words, every channel's direct busy chain, every channel's
// modeled-MC chain, the latest release. The other mode's fields are zero,
// and so is a single time-scaled channel's chain: the counters' MC point,
// saved with them, carries it.
func (c *clockPolicy) save(enc *snapshot.Enc) {
	if c.ts != nil {
		c.ts.SaveState(enc)
	} else {
		enc.I64(int64(c.wall))
		enc.I64(int64(c.maxWall))
	}
	for _, v := range c.chain {
		if c.ts != nil {
			v = 0
		}
		enc.I64(int64(v))
	}
	for _, v := range c.chain {
		if c.ts == nil || len(c.chain) == 1 {
			v = 0
		}
		enc.I64(int64(v))
	}
	enc.I64(int64(c.maxRelease))
}

// load restores what save wrote.
func (c *clockPolicy) load(dec *snapshot.Dec) {
	if c.ts != nil {
		c.ts.LoadState(dec)
	} else {
		c.wall = clock.PS(dec.I64())
		c.maxWall = clock.PS(dec.I64())
	}
	for i := range c.chain {
		if v := clock.PS(dec.I64()); c.ts == nil {
			c.chain[i] = v
		}
	}
	for i := range c.chain {
		if v := clock.PS(dec.I64()); c.ts != nil {
			c.chain[i] = v
		}
	}
	if c.ts != nil && len(c.chain) == 1 {
		c.chain[0] = c.ts.MCTime()
	}
	c.maxRelease = clock.Cycles(dec.I64())
}
