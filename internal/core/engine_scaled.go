package core

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/mem"
	"easydram/internal/smc"
	"easydram/internal/timescale"
)

// runScaled executes the workload under time scaling (Figure 5 mechanics).
// With a multi-channel topology each channel is its own modeled-MC service
// chain (chanMC); the global MC counter — what gates the processor's
// allowance in critical mode — is kept at the maximum over channels, so
// channels that serve in parallel overlap in emulated time exactly as
// independent controllers would.
func (e *engine) runScaled() error {
	ts, err := timescale.New(e.cfg.FPGA, e.cfg.ProcPhys, e.cfg.CPU.Clock, true)
	if err != nil {
		return err
	}
	e.ts = ts
	for c := range e.sys.chans {
		ch := c
		e.sys.chans[c].env.SetBurst(1, func() bool { return e.mayExtendBurstScaled(ch) })
	}
	if e.restore != nil {
		if err := e.loadCheckpoint(); err != nil {
			return err
		}
	}

	for {
		e.deliverMaturedScaled()

		if e.ckpt != nil && !e.ckpt.taken && ts.Proc() >= e.ckpt.at && e.quiescent() {
			e.capture()
		}

		if e.blockedOn != 0 {
			if release, ok := e.ready.Release(e.blockedOn); ok {
				ts.JumpProcTo(clock.Cycles(release))
				e.consumeScaled(e.blockedOn)
				e.blockedOn = 0
				continue
			}
			e.burstPhase = burstPhaseBlocked
			if err := e.smcStepScaled(); err != nil {
				return err
			}
			continue
		}

		if e.fencing {
			if e.inflightLen() == 0 && e.ready.Len() == 0 {
				ts.JumpProcTo(e.maxRelease)
				e.maybeExitCritical()
				e.fencing = false
				e.core.FenceDone()
				continue
			}
			if e.ready.Len() > 0 {
				it := e.ready.Min()
				ts.JumpProcTo(clock.Cycles(it.release))
				e.consumeScaled(it.id)
				continue
			}
			e.burstPhase = burstPhaseFence
			if err := e.smcStepScaled(); err != nil {
				return err
			}
			continue
		}

		allowance := ts.ProcAllowance()
		if allowance == 0 {
			e.burstPhase = burstPhaseStall
			if err := e.smcStepScaled(); err != nil {
				return err
			}
			continue
		}
		// Batching contract (see cpu.Core.Step): cap the batch at the next
		// response release point so every decision inside the batch sees
		// the same delivered-response state as cycle-at-a-time stepping.
		// Matured releases were delivered above, so the cap is >= 1.
		if e.ready.Len() > 0 {
			if d := clock.Cycles(e.ready.Min().release) - ts.Proc(); d < allowance {
				allowance = d
			}
		}
		out := e.core.Step(ts.Proc(), allowance)
		if out.Finished {
			break
		}
		if out.Mark {
			e.marks = append(e.marks, ts.Proc())
		}
		ts.AdvanceProc(out.Cycles)
		if err := e.checkCap(ts.Proc()); err != nil {
			return err
		}
		for i := range out.Reqs {
			if debugTrace {
				tracef("S issue id=%d kind=%v proc=%d", out.Reqs[i].ID, out.Reqs[i].Kind, ts.Proc())
			}
			e.issueScaled(&out.Reqs[i])
		}
		if out.WaitID != 0 {
			if debugTrace {
				tracef("S block on %d at proc=%d", out.WaitID, ts.Proc())
			}
		}
		if out.Fence {
			e.fencing = true
		}
		if out.WaitID != 0 {
			e.blockedOn = out.WaitID
		}
	}

	// Drain posted writebacks so wall-time accounting covers them.
	e.burstPhase = burstPhaseDrain
	for e.inflightLen() > 0 {
		if err := e.smcStepScaled(); err != nil {
			return err
		}
	}
	e.maybeExitCritical()
	return nil
}

// deliverMaturedScaled hands the core every ready response whose release
// point has been reached (in release order, O(log n) each).
func (e *engine) deliverMaturedScaled() {
	proc := int64(e.ts.Proc())
	for e.ready.Len() > 0 && e.ready.Min().release <= proc {
		it := e.ready.PopMin()
		e.core.Deliver(it.id)
		if e.blockedOn == it.id {
			e.blockedOn = 0
		}
	}
}

// consumeScaled delivers one ready response the processor waited for.
func (e *engine) consumeScaled(id uint64) {
	e.ready.Remove(id)
	e.core.Deliver(id)
	e.maybeExitCritical()
}

// issueScaled places a new request into its channel's EasyTile FIFO,
// tagging it with the current processor cycle and gating the processor
// domain. The request is copied into the tile's slab here, once; every
// later stage carries its slot.
func (e *engine) issueScaled(req *mem.Request) {
	req.Tag = e.ts.Proc()
	ch := e.sys.chanIndex(req.Addr)
	e.sys.chans[ch].tile.PushRequest(req)
	e.inflight[ch].Put(req.ID, pending{posted: req.Posted, tag: req.Tag})
	if e.trackArrivals {
		e.arrivals[ch].Push(req.ID, int64(req.Tag))
	}
	if !e.ts.Critical() {
		e.ts.EnterCritical()
	}
}

func (e *engine) maybeExitCritical() {
	if e.ts != nil && e.ts.Critical() && e.inflightLen() == 0 {
		e.ts.ExitCritical()
	}
}

// mcTimeOf reports channel ch's modeled-MC service point: with one channel
// it is the ts counters' exact MC time; with several it is the channel's
// own chain.
func (e *engine) mcTimeOf(ch int) clock.PS {
	if len(e.sys.chans) == 1 {
		return e.ts.MCTime()
	}
	return e.chanMC[ch]
}

// serveModeledChan is the multi-channel counterpart of
// timescale.Counters.ServeModeled: one service on channel ch's own MC
// chain, with the global MC counter lifted to the maximum over channels so
// processor allowance sees the memory system's overall progress.
func (e *engine) serveModeledChan(ch int, arrival clock.Cycles, occupancy, latency clock.PS) clock.Cycles {
	start := e.chanMC[ch]
	if t := e.ts.ProcEmul.ToTime(arrival); t > start {
		start = t
	}
	e.chanMC[ch] = start + occupancy
	e.ts.RaiseMCTime(e.chanMC[ch])
	if latency < occupancy {
		latency = occupancy
	}
	return e.ts.ProcEmul.CyclesCeil(start + latency)
}

// channelHasWorkScaled reports whether channel ch's controller has arrived
// requests to serve (scaled mode has no staging: issues are visible at
// once).
func (e *engine) channelHasWorkScaled(ch int) bool {
	c := &e.sys.chans[ch]
	return !c.tile.IncomingEmpty() || c.ctl.Pending() > 0
}

// pickChannelScaled selects the channel with work whose MC service chain is
// furthest behind (ties to the lower index): the channel a bank of real
// parallel controllers would have made progress on first.
func (e *engine) pickChannelScaled() (int, bool) {
	best, ok := -1, false
	var bestKey clock.PS
	for ch := range e.sys.chans {
		if !e.channelHasWorkScaled(ch) {
			continue
		}
		key := e.mcTimeOf(ch)
		if !ok || key < bestKey {
			best, bestKey, ok = ch, key, true
		}
	}
	return best, ok
}

// settleRefreshesScaled deterministically accounts every REF due on channel
// ch before its next request service starts: a refresh fires iff it is due
// by max(service point, next arrival). Refreshes falling in idle periods
// chain off the stale service point and so cost the emulated timeline
// nothing.
func (e *engine) settleRefreshesScaled(ch int) error {
	c := &e.sys.chans[ch]
	if !c.ctl.RefreshEnabled() {
		return nil
	}
	single := len(e.sys.chans) == 1
	for {
		arrival, ok := e.earliestArrival(ch)
		if !ok {
			return nil
		}
		horizon := e.cfg.CPU.Clock.ToTime(clock.Cycles(arrival))
		var mc clock.PS
		if single {
			mc = e.cfg.CPU.Clock.ToTime(e.ts.MC())
		} else {
			mc = e.cfg.CPU.Clock.ToTime(e.cfg.CPU.Clock.CyclesFloor(e.chanMC[ch]))
		}
		if mc > horizon {
			horizon = mc
		}
		due := c.ctl.NextRefreshDue()
		if due > horizon {
			return nil
		}
		env := c.env
		env.Reset(due)
		if err := c.ctl.ServeRefresh(env); err != nil {
			return err
		}
		charged := env.ChargedFPGA()
		if e.cfg.HardwareMC {
			charged = 0
		}
		e.ts.AdvanceWall(clock.PS(charged)*e.cfg.FPGA.Period() + env.BenderWall())
		if single {
			e.ts.ServeModeled(e.cfg.CPU.Clock.CyclesCeil(due), env.Occupancy(), env.Latency())
		} else {
			e.serveModeledChan(ch, e.cfg.CPU.Clock.CyclesCeil(due), env.Occupancy(), env.Latency())
		}
		if debugTrace {
			tracef("S refresh ch=%d due=%v occ=%v mc=%d", ch, due, env.Occupancy(), e.ts.MC())
		}
	}
}

// smcStepScaled runs one software-memory-controller iteration on the
// furthest-behind channel with work and settles its cost into the
// time-scaling counters.
func (e *engine) smcStepScaled() error {
	ch, ok := e.pickChannelScaled()
	if !ok {
		// Nothing left to serve: every in-flight request has a ready
		// response. Let the processor domain catch up to the earliest
		// release so the responses mature.
		if e.ready.Len() > 0 {
			e.ts.JumpProcTo(clock.Cycles(e.ready.Min().release))
			return nil
		}
		return fmt.Errorf("core: SMC idle with %d requests in flight (blocked=%d)", e.inflightLen(), e.blockedOn)
	}
	return e.stepChannelScaled(ch)
}

// stepChannelScaled runs one controller iteration on channel ch and settles
// its cost into the time-scaling counters.
func (e *engine) stepChannelScaled(ch int) error {
	if err := e.settleRefreshesScaled(ch); err != nil {
		return err
	}
	c := &e.sys.chans[ch]
	env := c.env
	env.Reset(e.cfg.CPU.Clock.ToTime(e.cfg.CPU.Clock.CyclesFloor(e.mcTimeOf(ch))))
	env.SetBurstBudget(e.burstBudget())
	worked, err := c.ctl.ServeOne(env)
	if err != nil {
		return err
	}
	if !worked {
		// Nothing left to serve on this channel: every in-flight request
		// routed here has a ready response. Let the processor domain catch
		// up to the earliest release so the responses mature.
		if e.ready.Len() > 0 {
			e.ts.JumpProcTo(clock.Cycles(e.ready.Min().release))
			return nil
		}
		return fmt.Errorf("core: SMC idle with %d requests in flight (blocked=%d)", e.inflightLen(), e.blockedOn)
	}

	single := len(e.sys.chans) == 1

	if len(env.Segments()) > 0 {
		return e.settleScaledSegments(ch, env)
	}

	charged := env.ChargedFPGA()
	if e.cfg.HardwareMC {
		charged = 0
	}
	e.ts.AdvanceWall(clock.PS(charged)*e.cfg.FPGA.Period() + env.BenderWall())

	responses := env.Responses()
	// One service on the channel's MC resource: start at max(service point,
	// the served request's arrival tag), occupy for the step's occupancy,
	// and tag the responses with the release point (start + latency, plus
	// the modeled hardware-controller extra) — the exact mirror of the
	// reference engine's wall-clock service math.
	arrival := clock.Cycles(0)
	if len(responses) > 0 {
		if p, ok := e.inflight[ch].Get(responses[0].ReqID); ok {
			arrival = p.tag
		}
	}
	var release clock.Cycles
	if single {
		release = e.ts.ServeModeled(arrival, env.Occupancy(), env.Latency()+e.extraModeled(len(responses)))
	} else {
		release = e.serveModeledChan(ch, arrival, env.Occupancy(), env.Latency()+e.extraModeled(len(responses)))
	}
	if len(responses) > 0 {
		if debugTrace {
			tracef("S serve ch=%d id=%d arrival=%d occ=%v lat=%v mc=%d release=%d proc=%d", ch, responses[0].ReqID, arrival, env.Occupancy(), env.Latency(), e.ts.MC(), release, e.ts.Proc())
		}
	}
	for _, r := range responses {
		p, ok := e.inflight[ch].Take(r.ReqID)
		if !ok {
			return fmt.Errorf("core: response for unknown request %d", r.ReqID)
		}
		if release > e.maxRelease {
			e.maxRelease = release
		}
		if e.multi != nil {
			e.multi.noteSettled(r.ReqID, int64(release), p.posted)
			continue
		}
		if p.posted {
			continue
		}
		e.ready.Push(r.ReqID, int64(release))
	}
	e.maybeExitCritical()
	return nil
}

// settleScaledSegments settles a burst step segment by segment, applying to
// each served request exactly the arithmetic its own serial step would have
// received: one AdvanceWall per segment (per-call FPGA-cycle ceilings
// included), one MC service chained through the channel's modeled-MC
// resource, and one release tag per response — so responses enter the
// release queue with their individual latencies and the counters advance
// bit-identically to serial service.
func (e *engine) settleScaledSegments(ch int, env *smc.Env) error {
	single := len(e.sys.chans) == 1
	responses := env.Responses()
	var prev smc.Segment
	for _, s := range env.Segments() {
		charged := s.Charged - prev.Charged
		if e.cfg.HardwareMC {
			charged = 0
		}
		e.ts.AdvanceWall(clock.PS(charged)*e.cfg.FPGA.Period() + s.Wall)
		if s.Responses != prev.Responses+1 {
			return fmt.Errorf("core: burst segment closed with %d responses, want 1", s.Responses-prev.Responses)
		}
		r := responses[s.Responses-1]
		arrival := clock.Cycles(0)
		p, ok := e.inflight[ch].Get(r.ReqID)
		if ok {
			arrival = p.tag
		}
		var release clock.Cycles
		if single {
			release = e.ts.ServeModeled(arrival, s.Occupancy-prev.Occupancy,
				s.Latency-prev.Latency+e.extraModeled(1))
		} else {
			release = e.serveModeledChan(ch, arrival, s.Occupancy-prev.Occupancy,
				s.Latency-prev.Latency+e.extraModeled(1))
		}
		if debugTrace {
			tracef("S burst-serve ch=%d id=%d arrival=%d occ=%v lat=%v mc=%d release=%d proc=%d", ch, r.ReqID, arrival,
				s.Occupancy-prev.Occupancy, s.Latency-prev.Latency, e.ts.MC(), release, e.ts.Proc())
		}
		if _, ok := e.inflight[ch].Take(r.ReqID); !ok {
			return fmt.Errorf("core: response for unknown request %d", r.ReqID)
		}
		if release > e.maxRelease {
			e.maxRelease = release
		}
		if e.multi != nil {
			e.multi.noteSettled(r.ReqID, int64(release), p.posted)
		} else if !p.posted {
			e.ready.Push(r.ReqID, int64(release))
		}
		prev = s
	}
	e.maybeExitCritical()
	return nil
}
