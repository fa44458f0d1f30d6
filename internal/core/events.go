package core

// Event structures for the emulation hot path.
//
// Every SMC step the engine needs two queries answered about outstanding
// work: "which ready responses have matured?" (and, symmetrically, "what is
// the earliest release point?") and "what is the earliest arrival among
// unserved requests?" (the refresh accounting horizon). The original
// implementation answered both by scanning Go maps, making each step O(n)
// in the number of in-flight requests and dominating the engine's CPU
// profile with map iteration. Two purpose-built structures replace those
// scans:
//
//   - releaseQueue: an indexed min-heap of response release points keyed by
//     (release, insertion sequence). Min-peek is O(1), pop and remove are
//     O(log n), and the position index gives O(1) lookup of the response a
//     blocked processor is waiting on. The sequence number makes tie order
//     deterministic (the engine's results are insensitive to delivery order
//     within one release point, but determinism must not rest on that).
//     The position index is an idIndex — the same dense-ID slot scheme as
//     slotRing — so heap maintenance performs no hashing either.
//
//   - arrivalRing: a FIFO of (request id, arrival key) in issue order.
//     Because the engine issues requests at monotonically nondecreasing
//     timestamps, the earliest live arrival is always at the head once
//     entries whose request already completed are skipped; each entry is
//     pushed and skipped at most once, so the amortised cost is O(1).
//
//   - slotRing: the in-flight request table, a dense slot array indexed by
//     request ID. The CPU allocates IDs sequentially from 1 and the live
//     window (MLP-bounded demand misses plus buffered posted writebacks) is
//     small, so id & mask almost never collides; insert, lookup, and remove
//     are a single indexed access with no hashing. It replaces the former
//     map[uint64]pending, whose mapaccess/mapassign/memhash calls were ~15%
//     of the substrate CPU profile.
//
// All three structures reuse their backing storage across a run.

// releaseItem is one pending response release point.
type releaseItem struct {
	id      uint64
	release int64 // emulated processor cycles (scaled) or wall ps (unscaled)
	seq     uint64
}

// releaseQueue is an indexed min-heap over (release, seq) with O(1) lookup
// by request id. The id -> heap-index map is a dense idIndex rather than a
// Go map: request IDs are sequential, so slot indexing replaces hashing on
// every push, pop, swap, and removal.
type releaseQueue struct {
	items []releaseItem
	pos   idIndex // request id -> index in items
	seq   uint64
}

func newReleaseQueue() releaseQueue {
	return releaseQueue{pos: newIDIndex()}
}

// Len reports the number of queued responses.
func (q *releaseQueue) Len() int { return len(q.items) }

// Min returns the earliest-release item. The queue must be non-empty.
func (q *releaseQueue) Min() releaseItem { return q.items[0] }

// Push inserts a release point for id.
func (q *releaseQueue) Push(id uint64, release int64) {
	q.items = append(q.items, releaseItem{id: id, release: release, seq: q.seq})
	q.seq++
	i := len(q.items) - 1
	q.pos.Put(id, i)
	q.siftUp(i)
}

// PopMin removes and returns the earliest-release item.
func (q *releaseQueue) PopMin() releaseItem {
	it := q.items[0]
	q.removeAt(0)
	return it
}

// Release reports the release point recorded for id.
func (q *releaseQueue) Release(id uint64) (int64, bool) {
	i, ok := q.pos.Get(id)
	if !ok {
		return 0, false
	}
	return q.items[i].release, true
}

// Remove deletes id's entry if present.
func (q *releaseQueue) Remove(id uint64) bool {
	i, ok := q.pos.Get(id)
	if !ok {
		return false
	}
	q.removeAt(i)
	return true
}

func (q *releaseQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.release != b.release {
		return a.release < b.release
	}
	return a.seq < b.seq
}

func (q *releaseQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos.Put(q.items[i].id, i)
	q.pos.Put(q.items[j].id, j)
}

func (q *releaseQueue) removeAt(i int) {
	last := len(q.items) - 1
	q.pos.Delete(q.items[i].id)
	if i != last {
		q.items[i] = q.items[last]
		q.pos.Put(q.items[i].id, i)
	}
	q.items = q.items[:last]
	if i < last {
		// The moved element may need to travel either direction.
		q.siftDown(i)
		q.siftUp(i)
	}
}

func (q *releaseQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *releaseQueue) siftDown(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		q.swap(i, min)
		i = min
	}
}

// arrivalEntry records one request's arrival key (processor-cycle tag under
// scaling, wall picoseconds otherwise) in issue order.
type arrivalEntry struct {
	id  uint64
	key int64
}

// arrivalRing is a slice-backed FIFO of arrival entries. Keys are pushed in
// monotonically nondecreasing order, so the head (after skipping entries
// whose request has completed) is always the minimum live key.
type arrivalRing struct {
	buf  []arrivalEntry
	head int
}

// Push appends an arrival. Keys must be nondecreasing across pushes. When
// the skipped prefix dominates the buffer, live entries are compacted to
// the front so the backing array stays bounded by the in-flight population.
func (r *arrivalRing) Push(id uint64, key int64) {
	if r.head > 64 && r.head*2 >= len(r.buf) {
		n := copy(r.buf, r.buf[r.head:])
		r.buf = r.buf[:n]
		r.head = 0
	}
	r.buf = append(r.buf, arrivalEntry{id: id, key: key})
}

// skipHead advances past the current head entry (its request completed) and
// recycles the backing storage once drained.
func (r *arrivalRing) skipHead() {
	r.head++
	if r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	}
}

// idSlot is one idTable cell: the request ID it holds (0 = empty — valid
// because CPU request IDs start at 1) plus the stored value.
type idSlot[V any] struct {
	id  uint64
	val V
}

// idTable is a dense map from request IDs to values: a power-of-two slot
// array indexed by id & mask. Request IDs are allocated sequentially and
// the live window is small relative to the table, so collisions are
// effectively nonexistent; when one does occur (an entry outliving a full
// table's worth of successors), the table doubles until every live entry
// fits. Steady state performs zero allocations. Both engine-side dense-ID
// structures instantiate it: slotRing (the in-flight request table) and
// idIndex (the releaseQueue's id -> heap-position index).
type idTable[V any] struct {
	slots []idSlot[V]
	mask  uint64
	live  int
}

// slotRing tracks in-flight requests; it replaced a map[uint64]pending
// that was ~15% of the substrate CPU profile.
type slotRing = idTable[pending]

// idIndex maps request IDs to releaseQueue heap positions, removing the
// engine's last hash map.
type idIndex = idTable[int]

// idTableInitial is the starting table size; it comfortably covers the
// live window of every configured core model (MLP plus posted traffic,
// which also bounds the responses awaiting release).
const idTableInitial = 64

func newSlotRing() slotRing { return newIDTable[pending]() }

func newIDIndex() idIndex { return newIDTable[int]() }

func newIDTable[V any]() idTable[V] {
	return idTable[V]{slots: make([]idSlot[V], idTableInitial), mask: idTableInitial - 1}
}

// Len reports the number of live entries.
func (r *idTable[V]) Len() int { return r.live }

// Contains reports whether id is live.
func (r *idTable[V]) Contains(id uint64) bool { return r.slots[id&r.mask].id == id }

// Get returns the value stored for id.
func (r *idTable[V]) Get(id uint64) (V, bool) {
	s := &r.slots[id&r.mask]
	if s.id != id {
		var zero V
		return zero, false
	}
	return s.val, true
}

// Put inserts (or overwrites) the value for id.
func (r *idTable[V]) Put(id uint64, v V) {
	for {
		s := &r.slots[id&r.mask]
		if s.id == id {
			s.val = v
			return
		}
		if s.id == 0 {
			s.id = id
			s.val = v
			r.live++
			return
		}
		r.grow()
	}
}

// Take removes and returns the value stored for id.
func (r *idTable[V]) Take(id uint64) (V, bool) {
	s := &r.slots[id&r.mask]
	if s.id != id {
		var zero V
		return zero, false
	}
	s.id = 0
	r.live--
	return s.val, true
}

// Delete removes id's entry if present.
func (r *idTable[V]) Delete(id uint64) bool {
	_, ok := r.Take(id)
	return ok
}

// grow doubles the table until every live entry lands in a distinct slot
// under the new mask (a single doubling almost always suffices: live IDs
// span a window no larger than the live count plus the oldest entry's age).
func (r *idTable[V]) grow() {
	n := len(r.slots) * 2
	for {
		slots := make([]idSlot[V], n)
		mask := uint64(n - 1)
		ok := true
		for i := range r.slots {
			if r.slots[i].id == 0 {
				continue
			}
			dst := &slots[r.slots[i].id&mask]
			if dst.id != 0 {
				ok = false
				break
			}
			*dst = r.slots[i]
		}
		if ok {
			r.slots, r.mask = slots, mask
			return
		}
		n *= 2
	}
}
