package workload

import (
	"fmt"
	"sync"
	"testing"
)

func collect(t *testing.T, k Kernel) []Op {
	t.Helper()
	s := k.Stream()
	defer s.Close()
	var ops []Op
	var op Op
	for s.Next(&op) {
		ops = append(ops, op)
	}
	return ops
}

func TestGenCoalescesCompute(t *testing.T) {
	k := Kernel{Name: "c", Body: func(g *Gen) {
		g.Compute(3)
		g.Compute(4)
		g.Load(0)
		g.Compute(5)
	}}
	ops := collect(t, k)
	if len(ops) != 3 {
		t.Fatalf("ops = %v", ops)
	}
	if ops[0].Kind != OpCompute || ops[0].N != 7 {
		t.Fatalf("coalesced compute = %+v", ops[0])
	}
	if ops[2].Kind != OpCompute || ops[2].N != 5 {
		t.Fatalf("trailing compute = %+v", ops[2])
	}
}

func TestGenOps(t *testing.T) {
	k := Kernel{Name: "all", Body: func(g *Gen) {
		g.Load(64)
		g.LoadDep(128)
		g.Store(192)
		g.Flush(256)
		g.RowClone(0, 8192)
		g.Barrier()
		g.Mark()
	}}
	ops := collect(t, k)
	wantKinds := []OpKind{OpLoad, OpLoad, OpStore, OpFlush, OpRowClone, OpBarrier, OpBarrier, OpMark}
	if len(ops) != len(wantKinds) {
		t.Fatalf("got %d ops, want %d: %v", len(ops), len(wantKinds), ops)
	}
	for i, k := range wantKinds {
		if ops[i].Kind != k {
			t.Fatalf("op %d = %v, want %v", i, ops[i].Kind, k)
		}
	}
	if !ops[1].Dep {
		t.Fatalf("LoadDep must set Dep")
	}
	if ops[4].Src != 0 || ops[4].Addr != 8192 {
		t.Fatalf("rowclone op = %+v", ops[4])
	}
}

func TestGoStreamMatchesDirectEmission(t *testing.T) {
	// Stream a kernel large enough to cross several slabs and verify order.
	k := Kernel{Name: "big", Body: func(g *Gen) {
		for i := 0; i < 3*slabSize; i++ {
			g.Load(uint64(i) * 64)
		}
	}}
	ops := collect(t, k)
	if len(ops) != 3*slabSize {
		t.Fatalf("streamed %d ops, want %d", len(ops), 3*slabSize)
	}
	for i, op := range ops {
		if op.Addr != uint64(i)*64 {
			t.Fatalf("op %d out of order: %+v", i, op)
		}
	}
}

func TestStreamCloseMidway(t *testing.T) {
	k := Kernel{Name: "huge", Body: func(g *Gen) {
		for i := 0; i < 100*slabSize; i++ {
			g.Load(uint64(i))
		}
	}}
	s := k.Stream()
	var op Op
	for i := 0; i < 10; i++ {
		if !s.Next(&op) {
			t.Fatalf("stream ended early")
		}
	}
	s.Close() // must unblock and stop the producer goroutine
	if s.Next(&op) {
		t.Fatalf("closed stream must not produce")
	}
}

// emitDirect runs k's body into one growing slice, with no stream or slab
// recycling in between.
func emitDirect(k Kernel) []Op {
	var all []Op
	g := &Gen{ops: make([]Op, 0, 64)}
	g.full = func(ops []Op) []Op {
		all = append(all, ops...)
		return ops[:0]
	}
	k.Body(g)
	g.flushCompute()
	return append(all, g.ops...)
}

// TestStreamsNeverShareSlabs opens many streams at once from concurrent
// goroutines, ending each in one of three ways, so slabs recycle through
// the pool while other streams fill theirs. A slab returned to the pool
// twice would be filled by two producers at once and corrupt both.
func TestStreamsNeverShareSlabs(t *testing.T) {
	kernel := func(seed uint64) Kernel {
		return Kernel{Name: "mix", Body: func(g *Gen) {
			x := seed
			for i := 0; i < 3*slabSize+int(seed%977); i++ {
				x = x*6364136223846793005 + 1442695040888963407
				switch x >> 61 {
				case 0:
					g.Compute(int64(x>>40) + 1)
				case 1:
					g.LoadDep(x >> 20)
				case 2:
					g.Store(x >> 20)
				case 3:
					g.RowClone(x>>30, x>>20)
				case 4:
					g.Mark()
				default:
					g.Load(x >> 20)
				}
			}
		}}
	}
	const workers, perWorker = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seed := uint64(w*perWorker + i + 1)
				k := kernel(seed)
				want := emitDirect(k)
				s := k.Stream()
				var n int
				switch i % 3 {
				case 0: // drained to the end
					n = len(want)
				case 1: // closed mid-way, past the first slab
					n = slabSize + int(seed%slabSize)
				}
				var op Op
				for j := 0; j < n; j++ {
					if !s.Next(&op) {
						errs <- fmt.Errorf("seed %d: stream ended after %d ops, want %d", seed, j, len(want))
						break
					}
					if op != want[j] {
						errs <- fmt.Errorf("seed %d: op %d = %+v, want %+v", seed, j, op, want[j])
						break
					}
				}
				if n == len(want) && s.Next(&op) {
					errs <- fmt.Errorf("seed %d: stream runs past %d ops", seed, len(want))
				}
				s.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream([]Op{{Kind: OpLoad, Addr: 1}, {Kind: OpStore, Addr: 2}})
	var op Op
	if !s.Next(&op) || op.Addr != 1 {
		t.Fatalf("first op wrong")
	}
	if !s.Next(&op) || op.Addr != 2 {
		t.Fatalf("second op wrong")
	}
	if s.Next(&op) {
		t.Fatalf("exhausted stream must stop")
	}
	s.Close()
}

func TestExtent(t *testing.T) {
	k := Kernel{Name: "e", Body: func(g *Gen) {
		g.Load(100)
		g.Store(5000)
		g.RowClone(0, 16384)
	}}
	if got := Extent(k); got != 16384+8192 {
		t.Fatalf("Extent = %d, want %d", got, 16384+8192)
	}
}

func TestOpKindString(t *testing.T) {
	names := map[OpKind]string{
		OpCompute: "compute", OpLoad: "load", OpStore: "store",
		OpFlush: "flush", OpRowClone: "rowclone", OpBarrier: "barrier", OpMark: "mark",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
}

func TestArenaRowAlignment(t *testing.T) {
	ar := NewArena(0)
	a := ar.Mat(10, 10)
	b := ar.Vec(3)
	if a.Base%arenaAlign != 0 || b.Base%arenaAlign != 0 {
		t.Fatalf("allocations not row-aligned: %x %x", a.Base, b.Base)
	}
	if b.Base < a.Base+10*10*8 {
		t.Fatalf("allocations overlap")
	}
	if a.At(2, 3) != a.Base+(2*10+3)*8 {
		t.Fatalf("Mat.At wrong")
	}
	c := ar.Cube(2, 3, 4)
	if c.At(1, 2, 3) != c.Base+((1*3+2)*4+3)*8 {
		t.Fatalf("Cube.At wrong")
	}
}

func TestTrafficGenerators(t *testing.T) {
	cases := []Kernel{
		StreamTriad(256),
		RandomAccess(1<<20, 500),
		Strided(0, 4096, 100),
		ComputeBound(50, 64),
	}
	for _, k := range cases {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			ops := collect(t, k)
			if len(ops) == 0 {
				t.Fatalf("no ops emitted")
			}
			loads := 0
			for _, op := range ops {
				if op.Kind == OpLoad {
					loads++
				}
			}
			if loads == 0 {
				t.Fatalf("no loads emitted")
			}
		})
	}
}

func TestRandomAccessDeterministic(t *testing.T) {
	a := collect(t, RandomAccess(1<<16, 100))
	b := collect(t, RandomAccess(1<<16, 100))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random-access stream not reproducible at op %d", i)
		}
	}
}

func TestRandomAccessSpreads(t *testing.T) {
	ops := collect(t, RandomAccess(1<<20, 1000))
	distinct := map[uint64]bool{}
	for _, op := range ops {
		if op.Kind == OpLoad {
			distinct[op.Addr] = true
		}
	}
	if len(distinct) < 500 {
		t.Fatalf("only %d distinct addresses across 1000 random accesses", len(distinct))
	}
}
