// Package workload generates the memory-operation streams the modelled
// processors execute: the 28 PolyBench kernels used for validation, the
// lmbench memory-read-latency microbenchmark, and the Copy/Init RowClone
// microbenchmarks from the paper's case studies.
//
// Kernels are written as ordinary nested Go loops that emit Ops through a
// Gen; a Stream adapter runs the kernel body in a goroutine and hands the
// consumer batched op slabs, so kernel code stays readable while the
// consumer pays (amortised) nothing for the channel hop.
package workload

import (
	"fmt"
	"sync"
)

// OpKind classifies one processor operation.
type OpKind uint8

// Operation kinds.
const (
	// OpCompute represents N back-to-back non-memory instructions.
	OpCompute OpKind = iota + 1
	// OpLoad reads the line containing Addr.
	OpLoad
	// OpStore writes the line containing Addr (write-allocate).
	OpStore
	// OpFlush writes the line containing Addr back to DRAM and invalidates
	// it (EasyDRAM's memory-mapped CLFLUSH register).
	OpFlush
	// OpRowClone asks the memory controller to copy row Src to row Addr.
	OpRowClone
	// OpBarrier waits until every outstanding request (including posted
	// writebacks) has completed.
	OpBarrier
	// OpMark records the current processor cycle into the run result
	// (measurement window boundary). It implies no memory activity.
	OpMark
)

// String names the operation kind for logs and error messages.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpFlush:
		return "flush"
	case OpRowClone:
		return "rowclone"
	case OpBarrier:
		return "barrier"
	case OpMark:
		return "mark"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one processor operation.
//
// The field order is a size property: the two 1-byte fields sit last so
// they share one padding word, which keeps an Op at 32 bytes (40 with Kind
// first). Every Op literal in the repository is keyed, so the order is
// free to change.
type Op struct {
	// N is the instruction count for OpCompute.
	N int64
	// Addr is the target byte address (load/store/flush/rowclone dest).
	Addr uint64
	// Src is the RowClone source address.
	Src  uint64
	Kind OpKind
	// Dep marks an operation whose address depends on the most recent
	// load's value (pointer chase); it cannot issue until that load
	// completes.
	Dep bool
}

// Stream supplies ops in program order.
type Stream interface {
	// Next fills op and reports whether an op was produced.
	Next(op *Op) bool
	// Close releases resources; the stream must not be used afterwards.
	Close()
}

// Kernel is a named op-stream factory, so a kernel can be run multiple
// times (once per system configuration).
type Kernel struct {
	Name string
	// Body emits the kernel's operations.
	Body func(g *Gen)
}

// Stream starts the kernel body and returns its op stream.
func (k Kernel) Stream() Stream { return newGoStream(k.Body) }

// Gen is the emission context handed to kernel bodies. Each op is written
// field by field straight into the slab being filled: no Op value is built
// and copied per op.
type Gen struct {
	// ops is the slab being filled; full hands it on once it is at
	// capacity and returns the empty slab to fill next.
	ops  []Op
	full func(ops []Op) []Op
	// pendingCompute coalesces consecutive Compute emissions.
	pendingCompute int64
}

// put appends one op to the slab. Every field is stored, because a
// recycled slab still holds the ops of an earlier stream.
func (g *Gen) put(kind OpKind, n int64, addr, src uint64, dep bool) {
	if len(g.ops) == cap(g.ops) {
		g.ops = g.full(g.ops)
	}
	i := len(g.ops)
	g.ops = g.ops[:i+1]
	op := &g.ops[i]
	op.Kind = kind
	op.N = n
	op.Addr = addr
	op.Src = src
	op.Dep = dep
}

// Compute emits n instructions of non-memory work (coalesced).
func (g *Gen) Compute(n int64) {
	if n > 0 {
		g.pendingCompute += n
	}
}

func (g *Gen) flushCompute() {
	if g.pendingCompute > 0 {
		g.put(OpCompute, g.pendingCompute, 0, 0, false)
		g.pendingCompute = 0
	}
}

// Load emits a load of addr.
func (g *Gen) Load(addr uint64) {
	g.flushCompute()
	g.put(OpLoad, 0, addr, 0, false)
}

// LoadDep emits a load whose address depends on the previous load.
func (g *Gen) LoadDep(addr uint64) {
	g.flushCompute()
	g.put(OpLoad, 0, addr, 0, true)
}

// Store emits a store to addr.
func (g *Gen) Store(addr uint64) {
	g.flushCompute()
	g.put(OpStore, 0, addr, 0, false)
}

// Flush emits a cache-line flush of addr.
func (g *Gen) Flush(addr uint64) {
	g.flushCompute()
	g.put(OpFlush, 0, addr, 0, false)
}

// RowClone emits an in-DRAM copy of the row at src to the row at dst.
func (g *Gen) RowClone(src, dst uint64) {
	g.flushCompute()
	g.put(OpRowClone, 0, dst, src, false)
}

// Barrier emits a full memory barrier.
func (g *Gen) Barrier() {
	g.flushCompute()
	g.put(OpBarrier, 0, 0, 0, false)
}

// Mark emits a measurement-window boundary (implies a barrier first, so a
// window never charges work from outside it).
func (g *Gen) Mark() {
	g.Barrier()
	g.put(OpMark, 0, 0, 0, false)
}

// slabSize is the op batch size moved per channel operation.
const slabSize = 4096

// slabPool recycles op slabs across streams: a validation pass opens a
// fresh stream per system run, and each would otherwise allocate its own
// slabs.
var slabPool = sync.Pool{New: func() any { return new([slabSize]Op) }}

func getSlab() []Op { return slabPool.Get().(*[slabSize]Op)[:0] }

func putSlab(ops []Op) { slabPool.Put((*[slabSize]Op)(ops[:slabSize])) }

// goStream runs a kernel body in a goroutine and streams op slabs. Each
// slab has one owner at a time — the producer while it fills, the channel
// in transit, the consumer while it reads — and the owner that is done
// with it returns it to slabPool, so a steady-state stream allocates no
// slabs.
type goStream struct {
	ch   chan []Op
	stop chan struct{}
	buf  []Op
	idx  int
	done bool
	// stopOnce guards the close of stop: the producer goroutine selects on
	// the stop field concurrently, so Close must never write the field
	// itself (an early abort — rejected restore blob, cycle-cap bail — can
	// close the stream while the producer is mid-emit).
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newGoStream(body func(*Gen)) *goStream {
	s := &goStream{
		ch:   make(chan []Op, 2),
		stop: make(chan struct{}),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.ch)
		aborted := false
		g := &Gen{ops: getSlab(), full: func(ops []Op) []Op {
			if !aborted {
				select {
				case s.ch <- ops:
					return getSlab()
				case <-s.stop:
					aborted = true
				}
			}
			// Aborted: the body runs to its end, refilling one
			// discarded slab.
			return ops[:0]
		}}
		body(g)
		if !aborted {
			g.flushCompute()
			if len(g.ops) > 0 {
				select {
				case s.ch <- g.ops:
					return
				case <-s.stop:
				}
			}
		}
		putSlab(g.ops)
	}()
	return s
}

func (s *goStream) Next(op *Op) bool {
	if s.done {
		return false
	}
	if s.idx >= len(s.buf) {
		// Recycle the spent slab before blocking on the next one, and
		// drop the reference: Close must not return it a second time.
		if s.buf != nil {
			putSlab(s.buf)
			s.buf = nil
		}
		slab, ok := <-s.ch
		if !ok {
			s.done = true
			return false
		}
		s.buf, s.idx = slab, 0
	}
	*op = s.buf[s.idx]
	s.idx++
	return true
}

func (s *goStream) Close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		// Drain so the producer unblocks and exits, recycling what it
		// had sent.
		for slab := range s.ch {
			putSlab(slab)
		}
		s.wg.Wait()
		if s.buf != nil {
			putSlab(s.buf)
			s.buf = nil
		}
	})
	s.done = true
}

// Extent scans the kernel's op stream and reports one past the highest
// byte address it touches (used to size characterization ranges).
func Extent(k Kernel) uint64 {
	s := k.Stream()
	defer s.Close()
	var op Op
	var max uint64
	for s.Next(&op) {
		switch op.Kind {
		case OpLoad, OpStore, OpFlush:
			if end := op.Addr + 64; end > max {
				max = end
			}
		case OpRowClone:
			if end := op.Addr + 8192; end > max {
				max = end
			}
		}
	}
	return max
}

// SliceStream adapts a fixed []Op (tests and microbenchmarks).
type SliceStream struct {
	ops []Op
	idx int
}

// NewSliceStream returns a Stream over ops.
func NewSliceStream(ops []Op) *SliceStream { return &SliceStream{ops: ops} }

// Next implements Stream.
func (s *SliceStream) Next(op *Op) bool {
	if s.idx >= len(s.ops) {
		return false
	}
	*op = s.ops[s.idx]
	s.idx++
	return true
}

// Close implements Stream.
func (s *SliceStream) Close() {}

var _ Stream = (*goStream)(nil)
var _ Stream = (*SliceStream)(nil)
