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
//   - releaseQueue: the ready responses sorted by (release, insertion
//     sequence), from a moving head. Min-peek and pop are O(1), and the
//     position index gives O(1) lookup of the response a blocked processor
//     is waiting on. Responses reach a core in nearly release order (each
//     channel's service chain is monotone, and a core has at most MLP
//     responses waiting), so a push almost always appends and a removal
//     almost always takes the head. The sequence number makes tie order
//     deterministic (the engine's results are insensitive to delivery
//     order within one release point, but determinism must not rest on
//     that). The position index is an idIndex — the same dense-ID slot
//     scheme as slotRing — so queue maintenance performs no hashing either.
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

// releaseQueue holds ready responses in (release, seq) order: items[head:]
// is sorted, with the earliest at head. The id -> index map is a dense
// idIndex rather than a Go map: request IDs are sequential, so slot
// indexing replaces hashing on every push, pop and removal.
type releaseQueue struct {
	items []releaseItem
	head  int
	pos   idIndex // request id -> index in items
	seq   uint64
}

func newReleaseQueue() releaseQueue {
	return releaseQueue{pos: newIDIndex()}
}

// Len reports the number of queued responses.
func (q *releaseQueue) Len() int { return len(q.items) - q.head }

// Min returns the earliest-release item. The queue must be non-empty.
func (q *releaseQueue) Min() releaseItem { return q.items[q.head] }

// Push inserts a release point for id: appended, then moved back past any
// later item (rare — responses arrive nearly in release order).
func (q *releaseQueue) Push(id uint64, release int64) {
	if len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		// Reuse the consumed prefix, once it is at least half the
		// storage, instead of growing.
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
		for i := range q.items {
			q.pos.Put(q.items[i].id, i)
		}
	}
	it := releaseItem{id: id, release: release, seq: q.seq}
	q.seq++
	q.items = append(q.items, it)
	i := len(q.items) - 1
	for i > q.head && it.before(&q.items[i-1]) {
		q.items[i] = q.items[i-1]
		q.pos.Put(q.items[i].id, i)
		i--
	}
	q.items[i] = it
	q.pos.Put(id, i)
}

// PopMin removes and returns the earliest-release item.
func (q *releaseQueue) PopMin() releaseItem {
	it := q.items[q.head]
	q.pos.Delete(it.id)
	q.advance()
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
	q.pos.Delete(id)
	if i == q.head {
		q.advance()
		return true
	}
	last := len(q.items) - 1
	for ; i < last; i++ {
		q.items[i] = q.items[i+1]
		q.pos.Put(q.items[i].id, i)
	}
	q.items = q.items[:last]
	return true
}

// advance drops the head item, recycling the storage once drained.
func (q *releaseQueue) advance() {
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
}

// before reports whether a orders before b: earlier release, then earlier
// insertion.
func (a *releaseItem) before(b *releaseItem) bool {
	if a.release != b.release {
		return a.release < b.release
	}
	return a.seq < b.seq
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
// idIndex (the releaseQueue's id -> position index).
type idTable[V any] struct {
	slots []idSlot[V]
	mask  uint64
	live  int
}

// slotRing tracks in-flight requests; it replaced a map[uint64]pending
// that was ~15% of the substrate CPU profile.
type slotRing = idTable[pending]

// idIndex maps request IDs to releaseQueue positions, removing the
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
