// Package cache implements set-associative write-back, write-allocate
// caches with LRU replacement, plus the two-level hierarchy used by the
// modelled processors (L1D + unified L2) including the memory-mapped
// cache-line flush EasyDRAM provides for RowClone coherence (§7.1).
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size; it matches the DRAM burst size.
const LineBytes = 64

// Stats counts cache events.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
	Flushes    int64
}

// Add accumulates o into s (multi-core results sum the per-core L1
// counters).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.Flushes += o.Flushes
}

// Way state is packed into one key per way: tag<<2 | dirty<<1 | valid,
// with zero meaning an invalid way. An 8-way set's keys span one host
// cache line, so a set scan touches one line; the LRU stamps, needed only
// on hits and installs, sit in a parallel array.
const (
	validBit uint64 = 1
	dirtyBit uint64 = 2
)

// Cache is one set-associative cache level. Not safe for concurrent use.
type Cache struct {
	name string
	// keys holds sets*assoc packed way keys, set-major; lru holds each
	// way's per-set sequence number (higher = more recently used, zero
	// for an invalid way).
	keys  []uint64
	lru   []uint64
	assoc int
	// setMask extracts the set index; tagShift strips line-offset and set
	// bits in one shift (the set count is a power of two, so the tag needs
	// no division).
	setMask  uint64
	tagShift uint
	setCount int
	setShift uint
	lruClock uint64
	stats    Stats
}

// New returns a cache of sizeBytes capacity and the given associativity.
func New(name string, sizeBytes, assoc int) (*Cache, error) {
	if sizeBytes <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("cache %s: size and associativity must be positive", name)
	}
	lines := sizeBytes / LineBytes
	if lines%assoc != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by associativity %d", name, lines, assoc)
	}
	setCount := lines / assoc
	if setCount&(setCount-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d must be a power of two", name, setCount)
	}
	shift := uint(6) // log2(LineBytes)
	return &Cache{
		name:     name,
		keys:     make([]uint64, lines),
		lru:      make([]uint64, lines),
		assoc:    assoc,
		setMask:  uint64(setCount - 1),
		tagShift: shift + uint(bits.TrailingZeros(uint(setCount))),
		setCount: setCount,
		setShift: shift,
	}, nil
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Stats returns a snapshot of event counters.
func (c *Cache) Stats() Stats { return c.stats }

// SizeBytes reports the capacity.
func (c *Cache) SizeBytes() int { return len(c.keys) * LineBytes }

func (c *Cache) setOf(addr uint64) int {
	return int((addr >> c.setShift) & c.setMask)
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.tagShift
}

func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return tag<<c.tagShift | uint64(set)<<c.setShift
}

// find returns the index in keys of the valid way holding addr's line,
// or -1 on a miss.
func (c *Cache) find(addr uint64) int {
	base := c.setOf(addr) * c.assoc
	want := c.tagOf(addr)<<2 | dirtyBit | validBit
	for i, k := range c.keys[base : base+c.assoc] {
		if k|dirtyBit == want {
			return base + i
		}
	}
	return -1
}

// Victim describes an eviction produced by Access or Install.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Lookup reports whether addr hits without changing replacement state.
func (c *Cache) Lookup(addr uint64) bool { return c.find(addr) >= 0 }

// Access performs a demand access. On hit it updates LRU (and the dirty bit
// for writes) and returns hit=true. On miss it returns hit=false and does
// NOT install the line; the caller installs it after the fill completes.
func (c *Cache) Access(addr uint64, write bool) (hit bool) {
	i := c.find(addr)
	if i < 0 {
		c.stats.Misses++
		return false
	}
	c.lruClock++
	c.lru[i] = c.lruClock
	if write {
		c.keys[i] |= dirtyBit
	}
	c.stats.Hits++
	return true
}

// Install fills addr into the cache, returning the victim (Valid=false when
// an empty way was available).
func (c *Cache) Install(addr uint64, dirty bool) Victim {
	set := c.setOf(addr)
	base := set * c.assoc
	victimIdx := base
	var oldest uint64 = ^uint64(0)
	for i := base; i < base+c.assoc; i++ {
		if c.keys[i] == 0 {
			victimIdx = i
			break
		}
		if c.lru[i] < oldest {
			oldest = c.lru[i]
			victimIdx = i
		}
	}
	v := Victim{}
	if k := c.keys[victimIdx]; k != 0 {
		v = Victim{Addr: c.lineAddr(set, k>>2), Dirty: k&dirtyBit != 0, Valid: true}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	key := c.tagOf(addr)<<2 | validBit
	if dirty {
		key |= dirtyBit
	}
	c.lruClock++
	c.keys[victimIdx] = key
	c.lru[victimIdx] = c.lruClock
	return v
}

// Flush removes addr from the cache if present, reporting whether it was
// present and dirty.
func (c *Cache) Flush(addr uint64) (present, dirty bool) {
	i := c.find(addr)
	if i < 0 {
		return false, false
	}
	dirty = c.keys[i]&dirtyBit != 0
	c.keys[i], c.lru[i] = 0, 0
	c.stats.Flushes++
	return true, dirty
}

// DirtyLines returns the addresses of all dirty lines (drain support).
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for i, k := range c.keys {
		if k&(dirtyBit|validBit) == dirtyBit|validBit {
			out = append(out, c.lineAddr(i/c.assoc, k>>2))
		}
	}
	return out
}

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	clear(c.keys)
	clear(c.lru)
	c.stats = Stats{}
	c.lruClock = 0
}
