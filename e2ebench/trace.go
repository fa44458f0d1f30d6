package main

import (
	"sync/atomic"
	"time"

	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/smc"
	"easydram/internal/snapshot"
	"easydram/internal/workload"
)

// Tracing lives in the benchmark's own files: spans are recorded around
// each call the benchmark makes into a layer (core.NewSystem, System.Run,
// the techniques calls, the single-layer replays), and the three seams the
// engine calls back through — the op Stream, the Scheduler and the tRCD
// provider — are wrapped by forwarding types that count and time each
// call. A nil *tracer disables all of it: untraced passes hand the
// program exactly the objects the experiments runners would.

// span is one timed interval. parent indexes the enclosing span in the
// tracer's slice (-1 for a pass root); every span of one pass shares the
// pass number.
type span struct {
	Name    string `json:"name"`
	Pass    int    `json:"pass"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// seamStats counts and times the calls that cross one wrapped seam.
// Counters are atomic: sharded channel service may call a scheduler from
// several host goroutines.
type seamStats struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (s *seamStats) add(t0 time.Time) {
	s.ns.Add(int64(time.Since(t0)))
	s.calls.Add(1)
}

// tracer keeps the spans and seam counters of one traced run in memory.
type tracer struct {
	origin time.Time
	pass   int
	spans  []span
	open   []int // stack of open span indices

	next seamStats // stream refills made for the engine
	pick seamStats // Scheduler.Pick and PickBurst calls
	trcd seamStats // tRCD provider queries
	// inRun holds the next, pick and tRCD seam time spent inside
	// System.Run calls this pass; ops counts the ops the engine consumed
	// and accesses the cache-replay accesses.
	inRun    [3]int64
	ops      int64
	accesses int64
	chunkBuf []workload.Op // the replays' reused op buffer
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, Parent: parent, StartNs: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNs = t.now()
	t.open = t.open[:len(t.open)-1]
}

// wrapStream returns s unchanged when tracing is off; otherwise a stream
// that pulls ops from s in batches of streamBatch, timing each refill, and
// counts them. Timing each Next call would cost as much as the call; a
// refill's time is what the engine spends obtaining those ops, blocking on
// the generator included.
func (t *tracer) wrapStream(s workload.Stream) workload.Stream {
	if t == nil {
		return s
	}
	return &tracedStream{inner: s, t: t}
}

const streamBatch = 4096

type tracedStream struct {
	inner workload.Stream
	t     *tracer
	buf   []workload.Op
	idx   int
}

func (s *tracedStream) Next(op *workload.Op) bool {
	if s.idx == len(s.buf) {
		t0 := time.Now()
		if s.buf == nil {
			s.buf = make([]workload.Op, 0, streamBatch)
		}
		s.buf, s.idx = s.buf[:0], 0
		var o workload.Op
		for len(s.buf) < streamBatch && s.inner.Next(&o) {
			s.buf = append(s.buf, o)
		}
		s.t.next.add(t0)
		s.t.ops += int64(len(s.buf))
		if len(s.buf) == 0 {
			return false
		}
	}
	*op = s.buf[s.idx]
	s.idx++
	return true
}

func (s *tracedStream) Close() { s.inner.Close() }

// wrapTRCD returns p unchanged when tracing is off or p is nil.
func (t *tracer) wrapTRCD(p smc.TRCDProvider) smc.TRCDProvider {
	if t == nil || p == nil {
		return p
	}
	return func(a dram.Addr) clock.PS {
		t0 := time.Now()
		v := p(a)
		t.trcd.add(t0)
		return v
	}
}

// wrapScheduler returns s unchanged when tracing is off; otherwise a
// forwarding scheduler whose method set mirrors the optional interfaces
// the controller and system assembly probe on s: BurstScheduler (with the
// controller's burst-truncation note), ChannelScheduler and
// StatefulScheduler. smc.Stateless is a concrete-type test no wrapper can
// pass, so a wrapped stateless scheduler instead offers CloneForChannel,
// sharing the stateless inner policy across channels exactly as system
// assembly would; the one remaining difference is that the controller
// calls Pick on one-entry tables, which it documents as timing-neutral.
func (t *tracer) wrapScheduler(s smc.Scheduler) smc.Scheduler {
	if t == nil || s == nil {
		return s
	}
	return wrapScheduler(s, &t.pick)
}

func wrapScheduler(s smc.Scheduler, st *seamStats) smc.Scheduler {
	w := &schedWrap{inner: s, st: st}
	bs, burst := s.(smc.BurstScheduler)
	_, channel := s.(smc.ChannelScheduler)
	channel = channel || smc.Stateless(s)
	ss, stateful := s.(smc.StatefulScheduler)
	b, c, f := burstFwd{w, bs}, cloneFwd{w}, stateFwd{ss}
	switch {
	case burst && channel && stateful:
		return &schedBCS{w, b, c, f}
	case burst && channel:
		return &schedBC{w, b, c}
	case burst && stateful:
		return &schedBS{w, b, f}
	case burst:
		return &schedB{w, b}
	case channel && stateful:
		return &schedCS{w, c, f}
	case channel:
		return &schedC{w, c}
	case stateful:
		return &schedS{w, f}
	}
	return w
}

type schedWrap struct {
	inner smc.Scheduler
	st    *seamStats
}

func (w *schedWrap) Name() string { return w.inner.Name() }

func (w *schedWrap) Pick(table []smc.Entry, openRows []int) int {
	t0 := time.Now()
	i := w.inner.Pick(table, openRows)
	w.st.add(t0)
	return i
}

type burstFwd struct {
	w     *schedWrap
	inner smc.BurstScheduler
}

func (f burstFwd) PickBurst(table []smc.Entry, openRows []int, cap int, buf []int) []int {
	t0 := time.Now()
	out := f.inner.PickBurst(table, openRows, cap, buf)
	f.w.st.add(t0)
	return out
}

// NoteBurstServed forwards the controller's burst-truncation note to
// policies that keep streak state (BLISS); for others it does nothing,
// which is what the controller does for a scheduler without the method.
func (f burstFwd) NoteBurstServed(n int) {
	if tr, ok := f.inner.(interface{ NoteBurstServed(int) }); ok {
		tr.NoteBurstServed(n)
	}
}

type cloneFwd struct{ w *schedWrap }

func (f cloneFwd) CloneForChannel() smc.Scheduler {
	if cs, ok := f.w.inner.(smc.ChannelScheduler); ok {
		return wrapScheduler(cs.CloneForChannel(), f.w.st)
	}
	return wrapScheduler(f.w.inner, f.w.st) // stateless: share the policy
}

type stateFwd struct{ inner smc.StatefulScheduler }

func (f stateFwd) SaveState(e *snapshot.Enc) { f.inner.SaveState(e) }
func (f stateFwd) LoadState(d *snapshot.Dec) { f.inner.LoadState(d) }

// One type per combination of forwarded interfaces, so each wrapper
// answers every type assertion exactly as its inner scheduler does.
type (
	schedB struct {
		*schedWrap
		burstFwd
	}
	schedC struct {
		*schedWrap
		cloneFwd
	}
	schedS struct {
		*schedWrap
		stateFwd
	}
	schedBC struct {
		*schedWrap
		burstFwd
		cloneFwd
	}
	schedBS struct {
		*schedWrap
		burstFwd
		stateFwd
	}
	schedCS struct {
		*schedWrap
		cloneFwd
		stateFwd
	}
	schedBCS struct {
		*schedWrap
		burstFwd
		cloneFwd
		stateFwd
	}
)
