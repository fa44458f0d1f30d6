package core

import (
	"easydram/internal/clock"
	"easydram/internal/smc"
)

// Row-hit burst service: engine-side gating.
//
// The controller may serve several same-row requests in one SMC step (one
// Bender program) — see smc.BaseController's serveAccessBurst — but only
// when doing so is bit-identical to serving them one step at a time. The
// controller charges per-request modeled costs exactly as serial service
// would; what it cannot see is the engine state that would have let the
// outside world interleave between serial steps. The gate below encodes
// exactly those conditions, one per engine phase:
//
//   - blocked: the processor waits on one request. Serial service stops
//     stepping the SMC the moment that request's response is queued (the
//     processor consumes it and may issue new requests), so a burst must
//     cut immediately after serving blockedOn.
//   - fencing / draining: the processor issues nothing until everything
//     completes; bursts extend freely.
//   - stalled (time scaling only): the processor could run once the MC
//     counter passes its cycle. Serial service would hand control back to
//     the processor after any step that lifts MC above Proc, so a burst may
//     only extend while its projected MC stays at or below Proc.
//
// Without time scaling, issued requests carry wall-clock arrival times
// and are staged until the SMC's decision point reaches them. A serial
// step sequence would ingest a staged request before the step whose
// decision point (the previous step's completion) reaches its arrival —
// changing table sizes, scheduling charges, and possibly the pick — so a
// burst must stop before its service chain's completion reaches the next
// staged arrival.
//
// Refresh: serial service re-checks the refresh horizon before every step
// (settleRefreshes: a REF fires iff it is due by max(service point,
// earliest live arrival)). The gate replays exactly that check against the
// projected service chain and the earliest arrival still unserved mid-step,
// and cut the burst before any REF would fall due — so refresh-on
// configurations burst too, and the engine settles the REF between serial
// steps exactly where serial service would have.
//
// The projection is per channel: a multi-channel engine steps one
// channel's controller at a time — each channel's Env carries a gate
// closure bound to its channel index — and each channel owns an
// independent service chain, which the clock policy defines (the modeled
// MC chain under time scaling, the SMC's wall busy chain without).

// burstPhase identifies the engine state an SMC step runs under.
type burstPhase uint8

const (
	// burstPhaseStall: time scaling, processor runnable but out of
	// allowance (MC <= Proc).
	burstPhaseStall burstPhase = iota
	// burstPhaseBlocked: processor blocked on one request's response.
	burstPhaseBlocked
	// burstPhaseFence: processor fenced until all outstanding work drains.
	burstPhaseFence
	// burstPhaseDrain: workload finished; posted writebacks drain.
	burstPhaseDrain
)

// mayExtendBurst is the burst gate for channel ch: the controller consults
// it after each served request, before appending the next.
func (e *engine) mayExtendBurst(ch int) bool {
	c := &e.sys.chans[ch]
	resp := c.env.Responses()
	if len(resp) == 0 {
		return false
	}
	// Serial service stops the moment the blocked-on response exists.
	if e.blockedOn != 0 && resp[len(resp)-1].ReqID == e.blockedOn {
		return false
	}
	// The decision point the next serial step would start from.
	next := e.keys.floor(e.projectedChain(ch))
	// A stalled processor regains allowance as soon as MC passes Proc;
	// serial service would let it run (and possibly issue requests that
	// change the next step's table) before serving more.
	if e.burstPhase == burstPhaseStall && next > e.clk.now() {
		return false
	}
	if c.ctl.RefreshEnabled() {
		// Replay the next serial step's refresh-horizon check: a REF due by
		// max(projected service point, earliest unserved arrival) would
		// fire before that step, so the burst must cut here and let the
		// engine settle it.
		horizon := e.keys.time(next)
		if arr, ok := e.earliestUnservedArrival(ch); ok {
			horizon = max(horizon, e.keys.time(arr))
		}
		if c.ctl.NextRefreshDue() <= horizon {
			return false
		}
	}
	// Serial service would ingest the next staged request before the step
	// whose decision point reaches its arrival. (Nothing is staged or
	// ingested during a step, so the head is the one ingest left.)
	if staged := e.staged[ch]; len(staged) > 0 {
		if p, ok := e.inflight[ch].Get(staged[0].id); ok && next >= p.arrival {
			return false
		}
	}
	return true
}

// projectedChain replays channel ch's service chain over the step's closed
// segments on top of its live service point, without mutating anything:
// per segment, start at max(chain, the served request's arrival) and
// occupy for the segment's chain-occupying SMC time plus its modeled
// occupancy.
func (e *engine) projectedChain(ch int) clock.PS {
	env := e.sys.chans[ch].env
	resp := env.Responses()
	chain := e.chain[ch]
	var prev smc.Segment
	for _, s := range env.Segments() {
		if s.Responses > prev.Responses {
			if p, ok := e.inflight[ch].Get(resp[s.Responses-1].ReqID); ok {
				chain = max(chain, e.keys.time(p.arrival))
			}
		}
		chain += e.clk.smcOccupancy(s.Charged-prev.Charged) + s.Occupancy - prev.Occupancy
		prev = s
	}
	return chain
}
