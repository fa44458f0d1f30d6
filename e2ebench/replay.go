package main

import (
	"fmt"
	"reflect"

	"easydram/internal/cache"
	"easydram/internal/clock"
	"easydram/internal/core"
	"easydram/internal/cpu"
	"easydram/internal/snapshot"
	"easydram/internal/techniques"
	"easydram/internal/workload"
)

// Single-layer replays: the inputs a traced run captured at a seam are run
// again through one layer alone, so that layer's host cost is measured
// without the rest of the engine around it.

// seamNs is the time spent so far inside each wrapped seam: next, pick,
// tRCD.
func (t *tracer) seamNs() [3]int64 {
	if t == nil {
		return [3]int64{}
	}
	return [3]int64{t.next.ns.Load(), t.pick.ns.Load(), t.trcd.ns.Load()}
}

// addRunSeams charges the seam time since seam0 to System.Run.
func (t *tracer) addRunSeams(seam0 [3]int64) {
	if t == nil {
		return
	}
	now := t.seamNs()
	for i := range now {
		t.inRun[i] += now[i] - seam0[i]
	}
}

// replay runs after each traced system run, on fresh copies of the run's
// streams: kernels are deterministic, so each copy regenerates exactly the
// ops the engine consumed. It times generation alone (one copy drained),
// cpu+cache alone (a copy run through a cpu.Core over a fresh
// cache.Hierarchy, every miss answered the moment it issues) and cache
// alone (the loads, stores and flushes of a copy through a fresh
// hierarchy). The last two pull ops from the generator in chunks, each
// chunk a replay.refill child span, so their self time is the layer's.
func (t *tracer) replay(cfg core.Config, mk func() []workload.Stream) {
	root := t.begin("replay")
	defer t.end(root)
	sp := t.begin("workload.gen")
	var op workload.Op
	for _, s := range mk() {
		for s.Next(&op) {
		}
		s.Close()
	}
	t.end(sp)
	for _, s := range mk() {
		sp = t.begin("cpu.replay")
		replayCPU(cfg, t.chunks(s))
		t.end(sp)
		s.Close()
	}
	for _, s := range mk() {
		sp = t.begin("cache.replay")
		t.accesses += replayCache(cfg, t.chunks(s))
		t.end(sp)
		s.Close()
	}
}

// chunkStream serves a stream's ops from a reused buffer that it refills
// a chunk at a time, each refill a replay.refill span.
type chunkStream struct {
	inner workload.Stream
	t     *tracer
	buf   []workload.Op
	idx   int
}

func (t *tracer) chunks(s workload.Stream) *chunkStream {
	if t.chunkBuf == nil {
		t.chunkBuf = make([]workload.Op, 0, 1<<16)
	}
	return &chunkStream{inner: s, t: t, buf: t.chunkBuf[:0]}
}

func (c *chunkStream) refill() bool {
	sp := c.t.begin("replay.refill")
	c.buf, c.idx = c.buf[:0], 0
	var op workload.Op
	for len(c.buf) < cap(c.buf) && c.inner.Next(&op) {
		c.buf = append(c.buf, op)
	}
	c.t.end(sp)
	return len(c.buf) > 0
}

func (c *chunkStream) Next(op *workload.Op) bool {
	if c.idx == len(c.buf) && !c.refill() {
		return false
	}
	*op = c.buf[c.idx]
	c.idx++
	return true
}

func (c *chunkStream) Close() {}

// replayCPU steps a core through s, delivering every request the moment
// it issues.
func replayCPU(cfg core.Config, s workload.Stream) {
	h, err := cache.NewHierarchy(cfg.Hier)
	if err != nil {
		panic(err) // cfg already built a system
	}
	c, err := cpu.New(cfg.CPU, h, s)
	if err != nil {
		panic(err)
	}
	var now clock.Cycles
	for {
		out := c.Step(now, 0)
		now += out.Cycles
		for _, r := range out.Reqs {
			c.Deliver(r.ID)
		}
		if out.WaitID != 0 {
			c.Deliver(out.WaitID)
		}
		if out.Fence {
			c.FenceDone()
		}
		if out.Finished {
			return
		}
	}
}

// replayCache runs the loads, stores and flushes of c through a fresh
// hierarchy and returns the number of accesses.
func replayCache(cfg core.Config, c *chunkStream) int64 {
	h, err := cache.NewHierarchy(cfg.Hier)
	if err != nil {
		panic(err)
	}
	var n int64
	for c.refill() {
		for i := range c.buf {
			op := &c.buf[i]
			switch op.Kind {
			case workload.OpLoad:
				h.Access(op.Addr, false)
			case workload.OpStore:
				h.Access(op.Addr, true)
			case workload.OpFlush:
				h.Flush(op.Addr)
			default:
				continue
			}
			n++
		}
	}
	return n
}

// replayBloom rebuilds each channel's weak-row filter from the profile's
// weak rows and checks it equals the filter the pass produced.
func (t *tracer) replayBloom(p *snapshot.Profile, seed uint64) error {
	sp := t.begin("bloom.build")
	defer t.end(sp)
	for _, ch := range p.Channels {
		f, err := techniques.BuildWeakRowFilter(ch.WeakRows, characterizeFPRate, seed+uint64(ch.Chan))
		if err != nil {
			return fmt.Errorf("characterize: rebuilding the channel %d filter: %w", ch.Chan, err)
		}
		if !reflect.DeepEqual(f, ch.Filter) {
			return fmt.Errorf("characterize: rebuilt channel %d filter differs from the profile's", ch.Chan)
		}
	}
	return nil
}
