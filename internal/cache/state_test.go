package cache

import (
	"bytes"
	"hash/fnv"
	"testing"

	"easydram/internal/snapshot"
)

// stateFormatDigest is the FNV-64a digest of the SaveState bytes that
// exerciseHierarchy leaves behind. It pins the checkpoint layout of the
// cache levels: a change to how ways are stored in memory must not change
// the blob (or must bump the snapshot version).
const stateFormatDigest = 0x73021ef5fcfdca7f

// exerciseHierarchy drives h through a fixed mix of loads, stores, direct
// installs, flushes and one drain, over a footprint larger than the L2 so
// both levels evict clean and dirty lines.
func exerciseHierarchy(h *Hierarchy, steps int) {
	x := uint64(12345)
	for i := 0; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 20) % (64 << 10)
		switch op := (x >> 8) % 16; {
		case op < 9:
			h.Access(addr, false)
		case op < 13:
			h.Access(addr, true)
		case op < 14:
			h.L2.Install(addr, op&1 == 0)
		default:
			h.Flush(addr)
		}
		if i == steps/2 {
			h.DrainDirty()
		}
	}
}

func newStateHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierConfig{L1Size: 2 << 10, L1Assoc: 4, L2Size: 16 << 10, L2Assoc: 8})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func saveState(h *Hierarchy) []byte {
	var e snapshot.Enc
	h.SaveState(&e)
	return e.Payload()
}

func TestStateFormatPinned(t *testing.T) {
	h := newStateHierarchy(t)
	exerciseHierarchy(h, 20000)
	if h.L2.Stats().Writebacks == 0 || h.L1.Stats().Flushes == 0 || len(h.L1.DirtyLines()) == 0 {
		t.Fatalf("sequence too tame: L1 %+v, L2 %+v", h.L1.Stats(), h.L2.Stats())
	}
	blob := saveState(h)
	sum := fnv.New64a()
	sum.Write(blob)
	if got := sum.Sum64(); got != stateFormatDigest {
		t.Fatalf("cache SaveState digest = %#x, want %#x: the checkpoint layout changed", got, uint64(stateFormatDigest))
	}

	// Round trip: a restored hierarchy re-saves the same bytes and then
	// evolves exactly like the original.
	r := newStateHierarchy(t)
	d := snapshot.NewDec(blob)
	r.LoadState(d)
	if err := d.Finish(); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if !bytes.Equal(saveState(r), blob) {
		t.Fatal("restored hierarchy re-saves different bytes")
	}
	exerciseHierarchy(h, 5000)
	exerciseHierarchy(r, 5000)
	if !bytes.Equal(saveState(r), saveState(h)) {
		t.Fatal("restored hierarchy diverged from the original")
	}
}

func TestLoadStateRejectsWideTag(t *testing.T) {
	c := newTestCache(t, 4096, 4)
	var e snapshot.Enc
	c.SaveState(&e)
	blob := e.Payload()
	// Way 0 follows the line count: tag, valid, dirty, lru. Mark it valid
	// with a tag no address of this geometry produces.
	for i := 8; i < 16; i++ {
		blob[i] = 0xff
	}
	blob[16] = 1
	d := snapshot.NewDec(blob)
	newTestCache(t, 4096, 4).LoadState(d)
	if d.Err() == nil {
		t.Fatal("a tag wider than the geometry must fail the decoder")
	}
}
