package core

import (
	"fmt"
	"math"
	"math/bits"

	"easydram/internal/clock"
	"easydram/internal/cpu"
	"easydram/internal/workload"
)

// Multi-core emulated hosts: N cpu.Core instances with
// private L1s behind a shared L2 (cache.MultiHierarchy) issue misses into
// the existing per-channel controllers, competing for banks — the habitat
// interference schedulers like BLISS exist for.
//
// The merge is a key-ordered discrete-event loop: every core and every
// channel-with-work is an actor with a monotone event key (in the engine's
// keyDomain: emulated processor cycles scaled, wall picoseconds unscaled),
// and each iteration advances the globally earliest actor (ties: channels
// before cores, then the lower index). Channels step through the same
// stepChannel as a single-core run. Eager channel stepping is what makes
// scheduler decisions see exactly the requests that arrived by their
// decision time — the lazy "serve only when the core is stuck" order of the
// single-core loop is only timing-correct with one core, because no new
// requests can arrive while that core is stopped.
//
// Determinism: every key is an integer, actor scan order is fixed, and a
// per-channel monotone arrival clamp (engine.issueAll) keeps the staged lists
// and arrival rings on the invariants the channel machinery assumes. The
// clamp's distortion is bounded by the core step quantum (mcQuantum) plus
// one batch's overshoot. Single-core configs never enter the merge:
// Cores <= 1 runs the single-core loop (engine.go), whose results the
// golden tests pin. Running one core as the merge's N=1 case is not
// equivalent: it moves emulated results on unscaled runs with refresh and
// on scaled multi-channel runs.

// mcQuantum caps how many emulated cycles one core step may advance between
// merge events, bounding both inter-core skew and the arrival clamp's
// distortion.
const mcQuantum = 64

// mcInf is the event key of an actor with no schedulable event.
const mcInf = int64(math.MaxInt64)

// mcOwner reports which of n cores issued request id (IDs are interleaved-
// dense: core i uses i+1, i+1+n, i+1+2n, …; see cpu.Core.SetIDSpace).
func mcOwner(id uint64, n int) int { return int((id - 1) % uint64(n)) }

// mcCore is one emulated core's engine-side state.
type mcCore struct {
	hostCore
	// pos is the core's own clock as an event key.
	pos int64
	// inflight counts the core's outstanding requests, posted included.
	inflight int
	finished bool
	// fenceAt is the latest release among the core's requests — what its
	// next fence completion advances pos to.
	fenceAt    int64
	procCycles clock.Cycles
}

// mcEngine is the merge-loop state shared across cores.
//
// Key cache: every actor's key is kept in chanKeys/coreKeys and recomputed
// only when a step can have moved it. A channel's key (its decision point,
// chanPoint) moves only when that channel steps or a core step issues into
// it; a core's key moves only when that core steps or a channel step
// settles one of its requests (noteSettled). The merge therefore
// recomputes, after each step, the actor it stepped, the cores in settled
// and the channels in fed — and nothing else. The scan over the cached keys
// keeps the uncached order and tie rule, so the pick sequence is the same
// by construction.
type mcEngine struct {
	e     *engine
	cores []*mcCore

	chanKeys, coreKeys []int64
	// settled is the set of cores (bit i = core i) whose requests the
	// current channel step released; fed lists the channels the current
	// core step issued into (repeats allowed).
	settled uint64
	fed     []int

	// pickHook, when non-nil, runs at every merge pick with the chosen
	// actor and key (the key-cache tests check the cache against fresh
	// keys there).
	pickHook func(m *mcEngine, ch, ci int, key int64) error
}

// noteSettled records one settled response for its owning core: the fence
// point, the in-flight count, and — for non-posted requests — the per-core
// delivery queue. Called from the channel settle path in place of the
// single-core shared-queue push.
func (m *mcEngine) noteSettled(id uint64, release int64, posted bool) {
	owner := mcOwner(id, len(m.cores))
	c := m.cores[owner]
	c.inflight--
	c.fenceAt = max(c.fenceAt, release)
	if !posted {
		c.ready.Push(id, release)
	}
	m.settled |= 1 << owner
}

// noteFed records that the current core step issued into channel ch.
func (m *mcEngine) noteFed(ch int) {
	if n := len(m.fed); n == 0 || m.fed[n-1] != ch {
		m.fed = append(m.fed, ch)
	}
}

// coreKey is core c's next event key, or mcInf when only channel progress
// can unblock it.
func (m *mcEngine) coreKey(c *mcCore) int64 {
	if c.finished {
		return mcInf
	}
	if c.blockedOn != 0 {
		if rel, ok := c.ready.Release(c.blockedOn); ok {
			return max(c.pos, rel)
		}
		return mcInf
	}
	if c.fencing {
		if c.inflight > 0 {
			return mcInf
		}
		if c.ready.Len() > 0 {
			return max(c.pos, c.ready.Min().release)
		}
		return max(c.pos, c.fenceAt)
	}
	return c.pos
}

// chanKey is channel ch's next event key: its decision point in the key
// domain, or mcInf when the channel has nothing for its controller.
func (m *mcEngine) chanKey(ch int) int64 {
	if at, ok := m.e.chanPoint(ch); ok {
		return m.e.keys.floor(at)
	}
	return mcInf
}

// initKeys fills the key cache from scratch.
func (m *mcEngine) initKeys() {
	m.chanKeys = make([]int64, len(m.e.sys.chans))
	m.coreKeys = make([]int64, len(m.cores))
	for ch := range m.chanKeys {
		m.chanKeys[ch] = m.chanKey(ch)
	}
	for i, c := range m.cores {
		m.coreKeys[i] = m.coreKey(c)
	}
}

// allFinished reports whether every core has exhausted its stream.
func (m *mcEngine) allFinished() bool {
	for _, c := range m.cores {
		if !c.finished {
			return false
		}
	}
	return true
}

// pickActor scans the cached keys, channels then cores, and returns the
// earliest actor — (channel index, -1) or (-1, core index) — and its key.
// Channels win ties so responses settle before a same-key core steps past
// them. rest is the earliest key among all other actors.
func (m *mcEngine) pickActor() (bestChan, bestCore int, key, rest int64) {
	bestChan, bestCore, key, rest = -1, -1, mcInf, mcInf
	for ch, k := range m.chanKeys {
		if k < key {
			rest, key, bestChan = key, k, ch
		} else if k < rest {
			rest = k
		}
	}
	for i, k := range m.coreKeys {
		if k < key {
			rest, key, bestCore, bestChan = key, k, i, -1
		} else if k < rest {
			rest = k
		}
	}
	return bestChan, bestCore, key, rest
}

// deadlockErr reports the stuck state when no actor has an event.
func (m *mcEngine) deadlockErr() error {
	blocked := 0
	for _, c := range m.cores {
		if !c.finished {
			blocked++
		}
	}
	return fmt.Errorf("core: multicore merge deadlocked with %d unfinished cores and %d requests in flight",
		blocked, m.e.inflightLen())
}

// runMerge drives the merge loop. Under time scaling it runs without
// critical mode: the key order itself paces cores against the modeled
// memory system, so processor allowance never gates a step, and the clock
// policy moves the processor counter to the makespan once at the end.
func (e *engine) runMerge() error {
	m := e.multi
	m.initKeys()
	// now is the merge clock: the latest key processed, which channel
	// steps read as the current time.
	var now int64
	for {
		ch, ci, key, rest := m.pickActor()
		if m.pickHook != nil {
			if err := m.pickHook(m, ch, ci, key); err != nil {
				return err
			}
		}
		if ch < 0 && ci < 0 {
			if m.allFinished() {
				break
			}
			return m.deadlockErr()
		}
		now = max(now, key)
		if ch >= 0 {
			if err := e.stepChannel(ch, now, key); err != nil {
				return err
			}
			m.chanKeys[ch] = m.chanKey(ch)
			for set := m.settled; set != 0; set &= set - 1 {
				i := bits.TrailingZeros64(set)
				m.coreKeys[i] = m.coreKey(m.cores[i])
			}
			m.settled = 0
			continue
		}
		if err := m.runCore(ci, rest, &now); err != nil {
			return err
		}
	}

	// The run's processor time is the makespan; its wall time covers the
	// last core's finish and every channel's service chain.
	var makespan clock.Cycles
	end := now
	for _, c := range m.cores {
		makespan = max(makespan, c.procCycles)
		end = max(end, c.pos)
	}
	e.clk.finish(makespan, end)
	return nil
}

// runCore steps core ci and keeps stepping it while the merge would pick
// it again. A core step moves no other core's key, and a channel it issued
// into can only have gained a decision point (an idle channel's first
// staged request) or kept its own, so the earliest other key after the
// step is rest lowered by the fed channels' new keys. While the core's new
// key stays strictly below that, the scan would choose the core next, and
// the pick is taken here without one. now is the merge clock, advanced per
// pick as the merge loop does.
func (m *mcEngine) runCore(ci int, rest int64, now *int64) error {
	c := m.cores[ci]
	for {
		if err := m.stepCore(ci); err != nil {
			return err
		}
		k := m.coreKey(c)
		m.coreKeys[ci] = k
		for _, ch := range m.fed {
			ck := m.chanKey(ch)
			m.chanKeys[ch] = ck
			rest = min(rest, ck)
		}
		m.fed = m.fed[:0]
		if k >= rest {
			return nil
		}
		if m.pickHook != nil {
			if err := m.pickHook(m, -1, ci, k); err != nil {
				return err
			}
		}
		*now = max(*now, k)
	}
}

// stepCore advances core ci one merge event: consume a matured response,
// complete a fence, or run up to mcQuantum processor cycles and issue the
// resulting requests.
func (m *mcEngine) stepCore(ci int) error {
	e := m.e
	c := m.cores[ci]

	c.deliverMatured(c.pos)

	if c.blockedOn != 0 {
		rel, ok := c.ready.Release(c.blockedOn)
		if !ok {
			return fmt.Errorf("core: multicore merge stepped blocked core %d without its response", ci)
		}
		// The core consumes the response at its next clock edge, as a
		// single core does.
		c.pos = max(c.pos, e.keys.edge(rel))
		c.consume(c.blockedOn)
		c.deliverMatured(c.pos)
		return nil
	}

	if c.fencing {
		if c.inflight > 0 {
			return fmt.Errorf("core: multicore merge stepped fencing core %d with %d requests in flight", ci, c.inflight)
		}
		if c.ready.Len() == 0 {
			c.pos = max(c.pos, c.fenceAt)
			c.fencing = false
			c.core.FenceDone()
			return nil
		}
		// Only ready responses remain: advance to the earliest and deliver
		// it.
		c.pos = max(c.pos, c.ready.Min().release)
		c.deliverMatured(c.pos)
		return nil
	}

	// Runnable: batch up to the quantum, cut at the next response's
	// delivery edge (the batching contract of cpu.Core.Step).
	budget := clock.Cycles(mcQuantum)
	if c.ready.Len() > 0 {
		budget = min(budget, e.keys.until(c.pos, c.ready.Min().release))
	}
	proc := e.keys.cycles(c.pos)
	out := c.core.Step(proc, budget)
	if out.Finished {
		c.finished = true
		c.procCycles = proc
		return nil
	}
	if out.Mark {
		c.marks = append(c.marks, proc)
	}
	c.pos += e.keys.span(out.Cycles)
	proc = e.keys.cycles(c.pos)
	if err := e.checkCap(proc); err != nil {
		return err
	}
	c.inflight += e.issueAll(&c.hostCore, &out, proc, c.pos)
	return nil
}

// runMulti builds the N-core engine and drives the merge loop. hook, when
// non-nil, runs at every merge pick (see mcEngine.pickHook).
func (s *System) runMulti(strms []workload.Stream, hook func(m *mcEngine, ch, ci int, key int64) error) (_ Result, err error) {
	for _, st := range strms {
		defer st.Close()
	}
	if s.failed != nil {
		return Result{}, s.failed
	}
	defer s.recoverRun(&err)
	n := len(strms)
	m := &mcEngine{pickHook: hook}
	for i, st := range strms {
		core, err := cpu.New(s.cfg.CPU, s.mhier.View(i), st)
		if err != nil {
			return Result{}, fmt.Errorf("core: %w", err)
		}
		core.SetIDSpace(uint64(i)+1, uint64(n))
		m.cores = append(m.cores, &mcCore{hostCore: hostCore{core: core, ready: newReleaseQueue()}})
	}
	e, err := s.newEngine(m)
	if err != nil {
		return Result{}, err
	}
	m.e = e
	if err := e.runMerge(); err != nil {
		return Result{}, err
	}
	return e.result(), nil
}
