package core

import (
	"fmt"

	"easydram/internal/clock"
	"easydram/internal/cpu"
	"easydram/internal/mem"
	"easydram/internal/smc"
)

// hostCore is one emulated core's delivery state: its produced responses
// keyed by release point, the response it is blocked on, its pending fence
// and its OpMark cycles. A single-core engine embeds one; the multi-core
// merge keeps one per core.
type hostCore struct {
	core      *cpu.Core
	ready     releaseQueue
	blockedOn uint64
	fencing   bool
	marks     []clock.Cycles
}

// deliverMatured hands the core every ready response released at or
// before key now, in release order (O(log n) each).
func (h *hostCore) deliverMatured(now int64) {
	for h.ready.Len() > 0 && h.ready.Min().release <= now {
		it := h.ready.PopMin()
		h.core.Deliver(it.id)
		if h.blockedOn == it.id {
			h.blockedOn = 0
		}
	}
}

// consume delivers one ready response ahead of its release (the caller
// has moved the core's clock to it).
func (h *hostCore) consume(id uint64) {
	h.ready.Remove(id)
	h.core.Deliver(id)
	if h.blockedOn == id {
		h.blockedOn = 0
	}
}

// runSingle executes a single-core workload. The loop is lazy: the SMC
// steps only when the processor cannot run (blocked on a response, fenced,
// out of time-scaling allowance) or has finished, which is timing-correct
// with one core because no request can arrive while it is stopped. The
// clock policy supplies everything mode-specific (clockpolicy.go); under
// time scaling this is Figure 5's critical-mode mechanics, without it the
// processor follows the wall clock and each channel's SMC is a serial
// resource running concurrently with it.
func (e *engine) runSingle() error {
	if e.restore != nil {
		if err := e.loadCheckpoint(); err != nil {
			return err
		}
	}
	for {
		now := e.clk.now()
		e.deliverMatured(now)

		if e.ckpt != nil && !e.ckpt.taken && e.keys.cycles(now) >= e.ckpt.at && e.quiescent() {
			e.capture()
		}

		if e.blockedOn != 0 {
			if release, ok := e.ready.Release(e.blockedOn); ok {
				// The processor consumes the response at its next clock
				// edge.
				e.clk.jump(e.keys.edge(release))
				e.consume(e.blockedOn)
				continue
			}
			if err := e.smcStep(burstPhaseBlocked); err != nil {
				return err
			}
			continue
		}

		if e.fencing {
			inflight := e.inflightLen()
			if inflight == 0 && e.ready.Len() == 0 {
				e.clk.jump(e.clk.fencePoint())
				e.fencing = false
				e.core.FenceDone()
				continue
			}
			if e.ready.Len() > 0 && (inflight == 0 || e.clk.consumeFirst()) {
				it := e.ready.Min()
				e.clk.jump(it.release)
				e.consume(it.id)
				continue
			}
			if err := e.smcStep(burstPhaseFence); err != nil {
				return err
			}
			continue
		}

		budget := e.clk.allowance()
		if budget == 0 {
			if err := e.smcStep(burstPhaseStall); err != nil {
				return err
			}
			continue
		}
		// Batching contract (see cpu.Core.Step): cap the batch at the next
		// response's delivery edge so every decision inside the batch sees
		// the same delivered-response state as cycle-at-a-time stepping.
		// Matured releases were delivered above, so the cap is >= 1.
		if e.ready.Len() > 0 {
			budget = min(budget, e.keys.until(now, e.ready.Min().release))
		}
		proc := e.keys.cycles(now)
		out := e.core.Step(proc, budget)
		if out.Finished {
			break
		}
		if out.Mark {
			e.marks = append(e.marks, proc)
		}
		e.clk.advance(out.Cycles)
		now = e.clk.now()
		proc = e.keys.cycles(now)
		if err := e.checkCap(proc); err != nil {
			return err
		}
		e.issueAll(&e.hostCore, &out, proc, now)
	}

	// Drain posted writebacks so wall-time accounting covers them.
	for e.inflightLen() > 0 {
		if err := e.smcStep(burstPhaseDrain); err != nil {
			return err
		}
	}
	now := e.clk.now()
	e.clk.finish(e.keys.cycles(now), now)
	return nil
}

// issueAll issues a core step's requests at processor cycle proc (event
// key now) and records the step's wait and fence. It returns how many
// requests it issued. Each request's arrival key is clamped to its
// channel's last recorded arrival, keeping the staged lists and arrival
// rings monotone when several cores issue (a single core's clock never
// moves back, so the clamp is a no-op there). The request is copied into
// the tile's slab here, once: straight into the FIFO when the clock policy
// admits it, otherwise staged until its arrival.
func (e *engine) issueAll(h *hostCore, out *cpu.Outcome, proc clock.Cycles, now int64) int {
	for i := range out.Reqs {
		req := &out.Reqs[i]
		req.Tag = proc
		ch := e.sys.chanIndex(req.Addr)
		arrival := max(now, e.lastArrival[ch])
		e.lastArrival[ch] = arrival
		e.inflight[ch].Put(req.ID, pending{posted: req.Posted, arrival: arrival})
		if e.multi != nil {
			e.multi.noteFed(ch)
		}
		if e.trackArrivals {
			e.arrivals[ch].Push(req.ID, arrival)
		}
		c := &e.sys.chans[ch]
		if !e.clk.admit(c, req) {
			e.staged[ch] = append(e.staged[ch], stagedReq{slot: c.tile.Stage(req), id: req.ID})
		}
	}
	if out.Fence {
		h.fencing = true
	}
	if out.WaitID != 0 {
		h.blockedOn = out.WaitID
	}
	return len(out.Reqs)
}

// smcStep runs one controller iteration, under the given engine phase, on
// the channel whose next decision point is earliest (ties to the lower
// index): the channel a bank of real parallel controllers would have made
// progress on first.
func (e *engine) smcStep(phase burstPhase) error {
	e.burstPhase = phase
	best := -1
	var bestAt clock.PS
	for ch := range e.sys.chans {
		if at, ok := e.chanPoint(ch); ok && (best < 0 || at < bestAt) {
			best, bestAt = ch, at
		}
	}
	if best < 0 {
		return e.idle()
	}
	return e.stepChannel(best, e.clk.now(), e.keys.floor(bestAt))
}

// idle handles an SMC step with nothing to serve: every in-flight request
// already has a ready response, so the clock policy lets the processor
// catch up to the earliest release.
func (e *engine) idle() error {
	if e.ready.Len() == 0 {
		return fmt.Errorf("core: SMC idle with %d requests in flight (blocked=%d)", e.inflightLen(), e.blockedOn)
	}
	e.clk.idle(e.ready.Min().release)
	return nil
}

// chanPoint reports channel ch's next decision time, and false when the
// channel has nothing for its controller: no arrived request in the tile
// FIFO, no buffered table entry and no staged request to wait for. The
// decision time is the channel's service point, lifted to its earliest
// staged arrival when the controller has nothing else.
func (e *engine) chanPoint(ch int) (clock.PS, bool) {
	c := &e.sys.chans[ch]
	staged := e.staged[ch]
	busy := !c.tile.IncomingEmpty() || c.ctl.Pending() > 0
	if !busy && len(staged) == 0 {
		return 0, false
	}
	at := e.chain[ch]
	if !busy {
		if p, ok := e.inflight[ch].Get(staged[0].id); ok {
			at = max(at, e.keys.time(p.arrival))
		}
	}
	return at, true
}

// stepChannel runs one controller iteration on channel ch with the engine
// at key now and settles its cost through the clock policy. decision is the
// channel's decision point as a key (floor of chanPoint), which the caller
// has just computed to pick the channel.
func (e *engine) stepChannel(ch int, now, decision int64) error {
	first := e.clk.ingestFirst()
	if first {
		e.ingest(ch, decision)
	}
	moved, err := e.settleRefreshes(ch)
	if err != nil {
		return err
	}
	if !first {
		if moved {
			// A settled refresh advanced the service point the decision
			// point derives from.
			at, _ := e.chanPoint(ch)
			decision = e.keys.floor(at)
		}
		e.ingest(ch, decision)
	}
	c := &e.sys.chans[ch]
	c.env.Reset(e.clk.stepTime(ch, now))
	c.env.SetBurstBudget(e.burstCap)
	worked, err := c.ctl.ServeOne(c.env)
	if err != nil {
		return err
	}
	if !worked {
		return e.idle()
	}
	return e.settle(ch, c.env)
}

// ingest makes exactly the staged requests of channel ch that have arrived
// by its decision point (a key) visible to its controller: the SMC only
// observes requests that have arrived by the time it decides. Staged
// requests sit in issue order with monotone arrivals, so when the
// controller is idle the earliest is first.
func (e *engine) ingest(ch int, decision int64) {
	staged := e.staged[ch]
	if len(staged) == 0 {
		return
	}
	c := &e.sys.chans[ch]
	kept := staged[:0]
	for _, sr := range staged {
		if p, _ := e.inflight[ch].Get(sr.id); p.arrival <= decision {
			c.tile.Enqueue(sr.slot)
		} else {
			kept = append(kept, sr)
		}
	}
	e.staged[ch] = kept
}

// settleRefreshes deterministically accounts every REF due on channel ch
// before its next request service starts: a refresh fires iff it is due by
// max(service point, earliest live arrival). Refreshes falling in idle
// periods chain off the stale service point and so cost the emulated
// timeline nothing. It reports whether it settled any refresh.
func (e *engine) settleRefreshes(ch int) (bool, error) {
	c := &e.sys.chans[ch]
	if !c.ctl.RefreshEnabled() {
		return false, nil
	}
	served := false
	for {
		arrival, ok := e.earliestArrival(ch)
		if !ok {
			return served, nil
		}
		horizon := max(e.keys.time(arrival), e.keys.time(e.keys.floor(e.chain[ch])))
		due := c.ctl.NextRefreshDue()
		if due > horizon {
			return served, nil
		}
		c.env.Reset(due)
		if err := c.ctl.ServeRefresh(c.env); err != nil {
			return served, err
		}
		e.clk.serve(ch, e.keys.ceil(due), c.env.ChargedFPGA(), c.env.BenderWall(), c.env.Occupancy(), c.env.Latency(), 0)
		served = true
	}
}

// settle charges a served step to channel ch's service chain and releases
// its responses. An ordinary step is one service; a burst step settles
// segment by segment, giving each served request exactly the arithmetic
// its own serial step would have received (per-segment wall charges, one
// chained service, one release per response), so the counters advance
// bit-identically to serial service.
func (e *engine) settle(ch int, env *smc.Env) error {
	resp := env.Responses()
	segs := env.Segments()
	if len(segs) == 0 {
		if err := e.release(ch, resp, env.ChargedFPGA(), env.BenderWall(), env.Occupancy(), env.Latency()); err != nil {
			return err
		}
	}
	var prev smc.Segment
	for _, s := range segs {
		if s.Responses != prev.Responses+1 {
			return fmt.Errorf("core: burst segment closed with %d responses, want 1", s.Responses-prev.Responses)
		}
		if err := e.release(ch, resp[prev.Responses:s.Responses], s.Charged-prev.Charged, s.Wall,
			s.Occupancy-prev.Occupancy, s.Latency-prev.Latency); err != nil {
			return err
		}
		prev = s
	}
	if e.inflightLen() == 0 {
		e.clk.drained()
	}
	return nil
}

// release chains one service on channel ch through the clock policy and
// releases the responses it produced. The service starts no earlier than
// the arrival of the request it serves, which its first response
// identifies.
func (e *engine) release(ch int, served []mem.Response, charged int64, wall, occ, lat clock.PS) error {
	var arrival int64
	if len(served) > 0 {
		if p, ok := e.inflight[ch].Get(served[0].ReqID); ok {
			arrival = p.arrival
		}
	}
	release := e.clk.serve(ch, arrival, charged, wall, occ, lat, len(served))
	for _, r := range served {
		p, ok := e.inflight[ch].Take(r.ReqID)
		if !ok {
			return fmt.Errorf("core: response for unknown request %d", r.ReqID)
		}
		if e.multi != nil {
			e.multi.noteSettled(r.ReqID, release, p.posted)
		} else if !p.posted {
			e.ready.Push(r.ReqID, release)
		}
	}
	return nil
}
