package core

import (
	"fmt"
	"math"

	"easydram/internal/clock"
	"easydram/internal/smc"
)

// runUnscaled executes the workload without time scaling. The processor
// follows the wall clock at its own frequency; each memory channel's SMC is
// a concurrently running serial resource whose busy time is tracked by
// chanFree[ch] — with several channels their service chains advance
// independently, which is exactly the wall-time overlap a multi-channel
// module buys. Two sub-modes share this path:
//
//   - raw software MC (HardwareMC=false): the "EasyDRAM - No Time Scaling"
//     configuration; the full programmable-core latency is visible;
//   - hardware MC (HardwareMC=true): the §6 validation reference, where
//     each request costs only the modeled controller latency plus DRAM time.
func (e *engine) runUnscaled() error {
	procPeriod := e.cfg.ProcPhys.Period()

	proc := func() clock.Cycles { return clock.Cycles(e.wallNow / procPeriod) }
	for c := range e.sys.chans {
		ch := c
		e.sys.chans[c].env.SetBurst(1, func() bool { return e.mayExtendBurstUnscaled(ch) })
	}
	if e.restore != nil {
		if err := e.loadCheckpoint(); err != nil {
			return err
		}
	}

	for {
		// Deliver responses whose wall release time has passed (in release
		// order; the ready queue keys are wall picoseconds here).
		e.drainMaturedUnscaled()

		if e.ckpt != nil && !e.ckpt.taken && proc() >= e.ckpt.at && e.quiescent() {
			e.capture()
		}

		if e.blockedOn != 0 {
			if w, ok := e.ready.Release(e.blockedOn); ok {
				// The processor consumes the response at its next clock
				// edge (the scaled engine's release tags are integral
				// cycles for the same reason).
				if clock.PS(w) > e.wallNow {
					e.wallNow = clock.PS(e.cfg.ProcPhys.CyclesCeil(clock.PS(w))) * procPeriod
				}
				e.ready.Remove(e.blockedOn)
				e.core.Deliver(e.blockedOn)
				e.blockedOn = 0
				continue
			}
			e.burstPhase = burstPhaseBlocked
			w, err := e.smcStepUnscaled()
			if err != nil {
				return err
			}
			if w > e.maxWall {
				e.maxWall = w
			}
			continue
		}

		if e.fencing {
			if e.inflightLen() == 0 && e.ready.Len() == 0 {
				if e.maxWall > e.wallNow {
					e.wallNow = e.maxWall
				}
				e.fencing = false
				e.core.FenceDone()
				continue
			}
			if e.inflightLen() > 0 {
				e.burstPhase = burstPhaseFence
				w, err := e.smcStepUnscaled()
				if err != nil {
					return err
				}
				if w > e.maxWall {
					e.maxWall = w
				}
				continue
			}
			// Only ready responses remain: advance to the earliest.
			if earliest := clock.PS(e.ready.Min().release); earliest > e.wallNow {
				e.wallNow = earliest
			}
			continue
		}

		// Batching contract (see cpu.Core.Step): cap the batch at the next
		// response's delivery edge — the first processor clock edge at or
		// past its wall release — so batched decisions see the same
		// delivered-response state as cycle-at-a-time stepping. Matured
		// releases were delivered above, so the cap is >= 1.
		budget := clock.Cycles(0)
		if e.ready.Len() > 0 {
			rel := clock.PS(e.ready.Min().release)
			budget = clock.Cycles((rel - e.wallNow + procPeriod - 1) / procPeriod)
		}
		out := e.core.Step(proc(), budget)
		if out.Finished {
			break
		}
		if out.Mark {
			e.marks = append(e.marks, proc())
		}
		e.wallNow += clock.PS(out.Cycles) * procPeriod
		if err := e.checkCap(proc()); err != nil {
			return err
		}
		for i := range out.Reqs {
			req := &out.Reqs[i]
			req.Tag = proc()
			ch := e.sys.chanIndex(req.Addr)
			if debugTrace {
				tracef("U issue id=%d kind=%v ch=%d wall=%d proc=%d", req.ID, req.Kind, ch, e.wallNow, proc())
			}
			// Copy into the owning channel's tile slab once; stage the slot
			// until arrival.
			e.staged[ch] = append(e.staged[ch], stagedReq{slot: e.sys.chans[ch].tile.Stage(req), id: req.ID})
			e.inflight[ch].Put(req.ID, pending{posted: req.Posted, arrival: e.wallNow})
			if e.trackArrivals {
				e.arrivals[ch].Push(req.ID, int64(e.wallNow))
			}
		}
		if out.WaitID != 0 {
			if debugTrace {
				tracef("U block on %d at wall=%d", out.WaitID, e.wallNow)
			}
		}
		if out.Fence {
			e.fencing = true
		}
		if out.WaitID != 0 {
			e.blockedOn = out.WaitID
		}
	}

	e.procCycles = proc()
	// Drain remaining posted writebacks for wall-time accounting.
	e.burstPhase = burstPhaseDrain
	for e.inflightLen() > 0 {
		w, err := e.smcStepUnscaled()
		if err != nil {
			return err
		}
		if w > e.maxWall {
			e.maxWall = w
		}
	}
	final := e.wallNow
	for _, free := range e.chanFree {
		if free > final {
			final = free
		}
	}
	e.globalFinal = e.cfg.FPGA.CyclesCeil(final)
	return nil
}

// drainMaturedUnscaled hands the core every ready response whose wall
// release time has passed, in release order.
func (e *engine) drainMaturedUnscaled() {
	for e.ready.Len() > 0 && e.ready.Min().release <= int64(e.wallNow) {
		it := e.ready.PopMin()
		e.core.Deliver(it.id)
		if e.blockedOn == it.id {
			e.blockedOn = 0
		}
	}
}

// channelHasWorkUnscaled reports whether channel ch has anything for its
// controller: arrived requests in the tile FIFO, buffered table entries, or
// staged (issued but not yet arrived) requests it would wait for.
func (e *engine) channelHasWorkUnscaled(ch int) bool {
	c := &e.sys.chans[ch]
	return !c.tile.IncomingEmpty() || c.ctl.Pending() > 0 || len(e.staged[ch]) > 0
}

// chanKeyUnscaled is channel ch's pick key: its next controller decision
// point, max(the channel's SMC-free point, its next staged arrival when it
// is otherwise idle).
func (e *engine) chanKeyUnscaled(ch int) clock.PS {
	key := e.chanFree[ch]
	c := &e.sys.chans[ch]
	if len(e.staged[ch]) > 0 && c.tile.IncomingEmpty() && c.ctl.Pending() == 0 {
		if p, found := e.inflight[ch].Get(e.staged[ch][0].id); found && key < p.arrival {
			key = p.arrival
		}
	}
	return key
}

// pickChannelUnscaled selects the channel whose next controller decision
// point is earliest. Ties break to the lower index, so runs are
// deterministic at any channel count. ok is false when no channel has work.
func (e *engine) pickChannelUnscaled() (int, bool) {
	best, ok := -1, false
	var bestKey clock.PS
	for ch := range e.sys.chans {
		if !e.channelHasWorkUnscaled(ch) {
			continue
		}
		key := e.chanKeyUnscaled(ch)
		if !ok || key < bestKey {
			best, bestKey, ok = ch, key, true
		}
	}
	return best, ok
}

// settleRefreshesUnscaled mirrors settleRefreshesScaled for channel ch:
// every REF due by max(service point, next arrival) is accounted before the
// next request service, chaining off the (possibly stale) service point.
func (e *engine) settleRefreshesUnscaled(ch int) error {
	c := &e.sys.chans[ch]
	if !c.ctl.RefreshEnabled() {
		return nil
	}
	for {
		arrival, found := e.earliestArrival(ch)
		if !found {
			return nil
		}
		horizon := clock.PS(arrival)
		if e.chanFree[ch] > horizon {
			horizon = e.chanFree[ch]
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
		start := e.chanFree[ch]
		if due > start {
			start = due
		}
		var smcOcc clock.PS
		if !e.cfg.HardwareMC {
			smcOcc = clock.PS(env.ChargedFPGA()) * e.cfg.FPGA.Period()
		}
		e.chanFree[ch] = start + smcOcc + env.Occupancy()
		if debugTrace {
			tracef("U refresh ch=%d due=%v occ=%v free=%d", ch, due, env.Occupancy(), e.chanFree[ch])
		}
	}
}

// smcStepUnscaled runs one controller iteration on the channel with the
// earliest pending decision and settles its cost onto that channel's
// wall-time resource. It returns the completion wall time of the work done.
func (e *engine) smcStepUnscaled() (clock.PS, error) {
	ch, ok := e.pickChannelUnscaled()
	if !ok {
		// Every in-flight request is already responded; nothing to step.
		if e.ready.Len() > 0 {
			var free clock.PS
			for _, f := range e.chanFree {
				if f > free {
					free = f
				}
			}
			return free, nil
		}
		return 0, fmt.Errorf("core: SMC idle with %d requests in flight (blocked=%d)", e.inflightLen(), e.blockedOn)
	}
	return e.stepChannelUnscaled(ch)
}

// stepChannelUnscaled runs one controller iteration on channel ch and
// returns the completion wall time of the work done.
func (e *engine) stepChannelUnscaled(ch int) (clock.PS, error) {
	if err := e.settleRefreshesUnscaled(ch); err != nil {
		return 0, err
	}
	c := &e.sys.chans[ch]
	env := c.env
	// Make exactly the requests that have arrived by the controller's next
	// decision point visible. If the controller is idle, the next decision
	// happens when the earliest staged request arrives. Staged requests sit
	// in issue order and arrivals are monotone, so the earliest is first.
	decision := e.chanKeyUnscaled(ch)
	kept := e.staged[ch][:0]
	for _, sr := range e.staged[ch] {
		if p, _ := e.inflight[ch].Get(sr.id); p.arrival <= decision {
			c.tile.Enqueue(sr.slot)
		} else {
			kept = append(kept, sr)
		}
	}
	e.staged[ch] = kept

	// A burst's service chain must stop before the next staged arrival:
	// serial stepping would ingest that request first (see burst.go).
	e.burstLimit[ch] = math.MaxInt64
	if len(e.staged[ch]) > 0 {
		if p, ok := e.inflight[ch].Get(e.staged[ch][0].id); ok {
			e.burstLimit[ch] = int64(p.arrival)
		}
	}

	now := e.wallNow
	if e.chanFree[ch] > now {
		now = e.chanFree[ch]
	}
	env.Reset(now)
	env.SetBurstBudget(e.burstBudget())
	worked, err := c.ctl.ServeOne(env)
	if err != nil {
		return 0, err
	}
	if !worked {
		if e.ready.Len() > 0 {
			// Everything outstanding is already responded; nothing to do.
			return e.chanFree[ch], nil
		}
		return 0, fmt.Errorf("core: SMC idle with %d requests in flight (blocked=%d)", e.inflightLen(), e.blockedOn)
	}

	responses := env.Responses()

	if len(env.Segments()) > 0 {
		return e.settleUnscaledSegments(ch, env)
	}

	// Service start: the SMC must be free and the request must have
	// arrived (the model serves one request per step, so the first
	// response identifies the request being served).
	start := e.chanFree[ch]
	if len(responses) > 0 {
		if p, ok := e.inflight[ch].Get(responses[0].ReqID); ok && p.arrival > start {
			start = p.arrival
		}
	}

	// Occupancy chains the serial resource; latency (plus the modeled
	// controller extra) sets the response release — mirroring the scaled
	// engine's MC/release split so the §6 validation compares like with
	// like. The raw software MC is itself the serial resource, so its
	// charged cycles appear in both terms.
	var smcOcc, smcLat clock.PS
	if e.cfg.HardwareMC {
		smcLat = e.extraModeled(len(responses))
	} else {
		chargedPS := clock.PS(env.ChargedFPGA()) * e.cfg.FPGA.Period()
		smcOcc = chargedPS
		smcLat = chargedPS + e.extraModeled(len(responses))
	}
	completion := start + smcOcc + env.Occupancy()
	release := start + smcLat + env.Latency()
	if release < completion {
		release = completion
	}
	e.chanFree[ch] = completion
	if len(responses) > 0 {
		if debugTrace {
			tracef("U serve ch=%d id=%d start=%d occ=%v lat=%v completion=%d release=%d", ch, responses[0].ReqID, start, env.Occupancy(), env.Latency(), completion, release)
		}
	}

	for _, r := range responses {
		p, ok := e.inflight[ch].Take(r.ReqID)
		if !ok {
			return 0, fmt.Errorf("core: response for unknown request %d", r.ReqID)
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
	return completion, nil
}

// settleUnscaledSegments settles a burst step segment by segment with the
// exact wall-clock service math of a serial step sequence: each segment
// starts at max(the channel's SMC free point, its request's arrival),
// chains the serial resource by its charged SMC cycles plus modeled
// occupancy, and releases its response at its own latency. The returned
// completion is the last segment's (the chain's maximum).
func (e *engine) settleUnscaledSegments(ch int, env *smc.Env) (clock.PS, error) {
	responses := env.Responses()
	var prev smc.Segment
	var completion clock.PS
	for _, s := range env.Segments() {
		if s.Responses != prev.Responses+1 {
			return 0, fmt.Errorf("core: burst segment closed with %d responses, want 1", s.Responses-prev.Responses)
		}
		r := responses[s.Responses-1]
		p, ok := e.inflight[ch].Get(r.ReqID)
		if !ok {
			return 0, fmt.Errorf("core: response for unknown request %d", r.ReqID)
		}
		start := e.chanFree[ch]
		if p.arrival > start {
			start = p.arrival
		}
		var smcOcc, smcLat clock.PS
		if e.cfg.HardwareMC {
			smcLat = e.extraModeled(1)
		} else {
			chargedPS := clock.PS(s.Charged-prev.Charged) * e.cfg.FPGA.Period()
			smcOcc = chargedPS
			smcLat = chargedPS + e.extraModeled(1)
		}
		completion = start + smcOcc + (s.Occupancy - prev.Occupancy)
		release := start + smcLat + (s.Latency - prev.Latency)
		if release < completion {
			release = completion
		}
		e.chanFree[ch] = completion
		if debugTrace {
			tracef("U burst-serve ch=%d id=%d start=%d completion=%d release=%d", ch, r.ReqID, start, completion, release)
		}
		e.inflight[ch].Take(r.ReqID)
		if e.multi != nil {
			e.multi.noteSettled(r.ReqID, int64(release), p.posted)
		} else if !p.posted {
			e.ready.Push(r.ReqID, int64(release))
		}
		prev = s
	}
	return completion, nil
}
