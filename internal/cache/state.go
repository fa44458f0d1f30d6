package cache

import "easydram/internal/snapshot"

// Checkpoint hooks. Geometry (set count, associativity, masks) is rebuilt
// from configuration; only the lines, the LRU clock, and the event counters
// serialize. Each way serializes as tag, valid, dirty, lru decoded from its
// packed key, so the blob does not depend on the in-memory way layout
// (TestStateFormatPinned holds it fixed).

// SaveState serializes one cache level's dynamic state.
func (c *Cache) SaveState(e *snapshot.Enc) {
	e.Int(len(c.keys))
	for i, k := range c.keys {
		e.U64(k >> 2)
		e.Bool(k&validBit != 0)
		e.Bool(k&dirtyBit != 0)
		e.U64(c.lru[i])
	}
	e.U64(c.lruClock)
	e.I64(c.stats.Hits)
	e.I64(c.stats.Misses)
	e.I64(c.stats.Evictions)
	e.I64(c.stats.Writebacks)
	e.I64(c.stats.Flushes)
}

// LoadState restores state written by SaveState into a freshly constructed
// cache of the same geometry. An invalid way loads as zero whatever tag
// and dirty bit it carries; a tag too wide for this geometry fails the
// decoder.
func (c *Cache) LoadState(d *snapshot.Dec) {
	if n := d.Int(); n != len(c.keys) {
		if d.Err() == nil {
			d.Failf("cache %s: snapshot has %d lines, cache has %d", c.name, n, len(c.keys))
		}
		return
	}
	for i := range c.keys {
		tag, valid, dirty, lru := d.U64(), d.Bool(), d.Bool(), d.U64()
		c.keys[i], c.lru[i] = 0, lru
		if !valid {
			continue
		}
		if tag>>(64-c.tagShift) != 0 {
			d.Failf("cache %s: snapshot tag %#x out of range", c.name, tag)
			return
		}
		c.keys[i] = tag<<2 | validBit
		if dirty {
			c.keys[i] |= dirtyBit
		}
	}
	c.lruClock = d.U64()
	c.stats.Hits = d.I64()
	c.stats.Misses = d.I64()
	c.stats.Evictions = d.I64()
	c.stats.Writebacks = d.I64()
	c.stats.Flushes = d.I64()
}

// SaveState serializes both hierarchy levels (wbScratch is per-access
// scratch and holds nothing across steps).
func (h *Hierarchy) SaveState(e *snapshot.Enc) {
	h.L1.SaveState(e)
	h.L2.SaveState(e)
}

// LoadState restores state written by SaveState.
func (h *Hierarchy) LoadState(d *snapshot.Dec) {
	h.L1.LoadState(d)
	h.L2.LoadState(d)
}
