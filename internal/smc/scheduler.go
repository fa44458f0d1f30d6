package smc

import (
	"errors"

	"easydram/internal/dram"
	"easydram/internal/mem"
	"easydram/internal/tile"
)

// Entry is one request as buffered in the controller's software request
// table, together with metadata the controller computes once at ingest so
// that scheduling decisions stay O(table) with no per-entry address
// translation and no request copying:
//
//   - Slot is the request's index in the tile's pooled request slab. The
//     48-byte mem.Request is written once at issue; the table carries the
//     4-byte slot plus the hot fields (ID, Kind, decoded coordinates), so
//     the former reqScratch -> FIFO -> Entry copy chain is gone. Cold
//     fields (RCD, Rows for profiling requests) are read from the slab at
//     service time.
//   - Addr is the decoded DRAM coordinate of the request's address (and
//     Src of its source, for the two-address techniques). Decoding happens
//     once per request instead of once per request per scheduling decision;
//     the modeled MapAddr cost is still charged at service time, so
//     emulated timing is unchanged.
//   - Seq is a monotone arrival sequence number. The table is unordered —
//     the controller removes served entries by swap-remove — so schedulers
//     must order by Seq, never by index.
type Entry struct {
	// Slot indexes the tile's pooled request slab.
	Slot tile.ReqSlot
	// ID is the request's ID (responses are keyed by it).
	ID uint64
	// Kind classifies the request.
	Kind mem.Kind
	// Addr is the request's address decoded to DRAM coordinates.
	Addr dram.Addr
	// Src is the source address decoded (RowClone and Bitwise requests).
	Src dram.Addr
	// Seq is the arrival order: lower is older.
	Seq uint64
}

// IsAccess reports whether the entry is a plain cache-line access — Read,
// Write, or Writeback — the only kinds the burst service path may coalesce
// (techniques are served one per step).
func (e *Entry) IsAccess() bool {
	switch e.Kind {
	case mem.Read, mem.Write, mem.Writeback:
		return true
	}
	return false
}

// ErrBadPick reports a Pick or PickBurst result that addresses no entry of
// the request table, or a PickBurst that returned no index at all or
// repeated one. The controller returns it wrapped with the scheduler's name
// and the bad index instead of serving anything.
var ErrBadPick = errors.New("smc: scheduler picked outside the request table")

// ErrSchedulerPanic reports a scheduler whose Pick or PickBurst panicked.
// The system running it fails the run with this error, wrapped with the
// scheduler's name and the panic value (see BaseController.SchedulerPanic),
// and returns the same error from every later run.
var ErrSchedulerPanic = errors.New("smc: scheduler panicked")

// Scheduler selects the next buffered request to serve (EasyAPI provides
// FCFS, FR-FCFS, and BLISS implementations; users can plug their own).
type Scheduler interface {
	Name() string
	// Pick returns the index of the entry to serve next. openRows[b] is the
	// currently open row of bank b (-1 when precharged). Pick is only
	// called with a non-empty table. Entries are not age-ordered; use
	// Entry.Seq to break ties by arrival.
	Pick(table []Entry, openRows []int) int
}

// BurstScheduler is implemented by schedulers that can hand the controller
// a row-hit burst: the winner plus every further entry the scheduler would
// provably serve consecutively after it, all targeting the winner's
// (bank, row). The controller then serves the whole batch with one Bender
// program (see BaseController's burst service path).
type BurstScheduler interface {
	Scheduler
	// PickBurst appends to buf the distinct table indices of up to cap
	// entries in exact service order, starting with the entry Pick would
	// return, and returns the extended slice. Every index after the first must satisfy:
	// it targets the same (bank, row) as the winner (with the winner's
	// activation applied to openRows), it is a plain access (Read, Write,
	// Writeback), and repeated Pick-and-remove calls — with no new arrivals
	// — would select exactly this sequence. Implementations must update any
	// internal state (e.g. BLISS streaks) exactly as the equivalent Pick
	// sequence would. The controller may serve fewer than the returned
	// entries (a burst gate can cut the tail); state-carrying schedulers
	// get told via NoteBurstServed.
	PickBurst(table []Entry, openRows []int, cap int, buf []int) []int
}

// Stateless reports whether s is one of the built-in stateless schedulers:
// safe to share across channels, and — with a one-entry table — safe to
// skip the Pick call for. Both the controller's single-entry fast path and
// the multi-channel system assembly consult this one predicate, so a new
// built-in policy only has to be classified here.
func Stateless(s Scheduler) bool {
	switch s.(type) {
	case FCFS, FRFCFS:
		return true
	}
	return false
}

// ChannelScheduler is implemented by stateful schedulers that can produce
// an independent instance per channel. Multi-channel systems run one
// request table and one scheduler per channel; a stateful policy (BLISS
// streaks, custom history) must not share its state across channels, so
// the system clones it once per extra channel. Stateless schedulers (FCFS,
// FR-FCFS) need no clone and may be shared.
type ChannelScheduler interface {
	Scheduler
	// CloneForChannel returns a fresh scheduler with the same policy
	// parameters and pristine state.
	CloneForChannel() Scheduler
}

// burstSortKey orders burst candidates into FR-FCFS service order: reads
// before writes (the class packed into the Seq's top bit — Seq values are
// dense counters, nowhere near 2^63), each class oldest-first.
func burstSortKey(e *Entry) uint64 {
	k := e.Seq
	if e.Kind != mem.Read {
		k |= 1 << 63
	}
	return k
}

// burstTruncater is implemented by stateful burst schedulers that must know
// when the controller served fewer entries than PickBurst returned (the
// engine's exactness gate can cut a burst's tail).
type burstTruncater interface {
	// NoteBurstServed reports that only the first n entries of the last
	// PickBurst result were served.
	NoteBurstServed(n int)
}

// FCFS serves requests strictly in arrival order.
type FCFS struct{}

// Name implements Scheduler.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Scheduler.
func (FCFS) Pick(table []Entry, openRows []int) int {
	oldest := 0
	for i := 1; i < len(table); i++ {
		if table[i].Seq < table[oldest].Seq {
			oldest = i
		}
	}
	return oldest
}

// PickBurst implements BurstScheduler: FCFS serves in strict Seq order, so
// a burst is the run of consecutive-by-age entries that stays on the
// winner's (bank, row) and consists of plain accesses.
func (FCFS) PickBurst(table []Entry, openRows []int, cap int, buf []int) []int {
	w := FCFS{}.Pick(table, openRows)
	buf = append(buf, w)
	if cap <= 1 || !table[w].IsAccess() {
		return buf
	}
	tb, tr := table[w].Addr.Bank, table[w].Addr.Row
	lastSeq := table[w].Seq
	for len(buf) < cap {
		next := -1
		for i := range table {
			e := &table[i]
			if e.Seq <= lastSeq {
				continue
			}
			if next < 0 || e.Seq < table[next].Seq {
				next = i
			}
		}
		if next < 0 {
			break
		}
		e := &table[next]
		if !e.IsAccess() || e.Addr.Bank != tb || e.Addr.Row != tr {
			break
		}
		buf = append(buf, next)
		lastSeq = e.Seq
	}
	return buf
}

// FRFCFS implements First-Ready, First-Come-First-Served with read priority:
// the oldest row-hit read, then the oldest row-hit write, then the oldest
// read, then the oldest request of any kind (the explicit arrival-order
// fallback that also covers tables holding only technique requests).
type FRFCFS struct{}

// Name implements Scheduler.
func (FRFCFS) Name() string { return "fr-fcfs" }

// Pick implements Scheduler.
func (FRFCFS) Pick(table []Entry, openRows []int) int {
	hitRead, hitWrite, read, oldest := -1, -1, -1, -1
	for i := range table {
		e := &table[i]
		if oldest < 0 || e.Seq < table[oldest].Seq {
			oldest = i
		}
		switch e.Kind {
		case mem.Read, mem.Write, mem.Writeback:
		default:
			// Techniques (RowClone, Profile) are never row hits; they are
			// served in arrival order.
			continue
		}
		if openRows[e.Addr.Bank] == e.Addr.Row {
			if e.Kind == mem.Read {
				if hitRead < 0 || e.Seq < table[hitRead].Seq {
					hitRead = i
				}
			} else if hitWrite < 0 || e.Seq < table[hitWrite].Seq {
				hitWrite = i
			}
		}
		if e.Kind == mem.Read && (read < 0 || e.Seq < table[read].Seq) {
			read = i
		}
	}
	if hitRead >= 0 {
		return hitRead
	}
	if hitWrite >= 0 {
		return hitWrite
	}
	if read >= 0 {
		return read
	}
	return oldest
}

// PickBurst implements BurstScheduler. After the winner (whose activation
// makes its row the open row of its bank), FR-FCFS serves every row-hit
// read oldest-first, then every row-hit write oldest-first; the burst is
// the prefix of that sequence that stays on the winner's (bank, row). A
// same-row read is in the prefix while no OTHER bank's row-hit read is
// older than it; same-row writes follow only when no other row-hit read
// exists at all, and only while no other row-hit write is older.
//
// The gather is one classification pass over the table plus an insertion
// sort of the (small, cap-bounded) candidate set — this runs on the service
// hot path, so it must not cost more than the serial picks it replaces.
func (FRFCFS) PickBurst(table []Entry, openRows []int, cap int, buf []int) []int {
	w := FRFCFS{}.Pick(table, openRows)
	buf = append(buf, w)
	if cap <= 1 || !table[w].IsAccess() {
		return buf
	}
	tb, tr := table[w].Addr.Bank, table[w].Addr.Row
	winnerIsRead := table[w].Kind == mem.Read

	// One pass: collect same-row access candidates into buf (unsorted) and
	// find the oldest row-hit read/write on any other (bank, row) — with
	// the winner's row treated as open — which bound the same-row runs.
	const noSeq = ^uint64(0)
	minOtherHitRead, minOtherHitWrite := noSeq, noSeq
	for i := range table {
		if i == w {
			continue
		}
		e := &table[i]
		if !e.IsAccess() {
			continue
		}
		if e.Addr.Bank == tb && e.Addr.Row == tr {
			// A same-row read with a non-read winner cannot occur (a read
			// would have outranked the winner); skip defensively so a
			// custom flow can never misorder.
			if e.Kind == mem.Read && !winnerIsRead {
				continue
			}
			buf = append(buf, i)
		} else if openRows[e.Addr.Bank] == e.Addr.Row {
			if e.Kind == mem.Read {
				if e.Seq < minOtherHitRead {
					minOtherHitRead = e.Seq
				}
			} else if e.Seq < minOtherHitWrite {
				minOtherHitWrite = e.Seq
			}
		}
	}

	// Serial service order among the candidates: reads before writes, each
	// class oldest-first. Insertion sort by (isWrite, Seq); candidate sets
	// are cap-bounded small.
	tail := buf[1:]
	for i := 1; i < len(tail); i++ {
		v := tail[i]
		vk := burstSortKey(&table[v])
		j := i - 1
		for j >= 0 && burstSortKey(&table[tail[j]]) > vk {
			tail[j+1] = tail[j]
			j--
		}
		tail[j+1] = v
	}

	// Trim to the provable prefix.
	n := 1
	for _, idx := range tail {
		if n >= cap {
			break
		}
		e := &table[idx]
		if e.Kind == mem.Read {
			if e.Seq > minOtherHitRead {
				break // an older other-bank hit read would win first
			}
		} else {
			if minOtherHitRead != noSeq {
				break // hit writes wait for every hit read anywhere
			}
			if e.Seq > minOtherHitWrite {
				break // an older other-bank hit write would win first
			}
		}
		n++
	}
	return buf[:n]
}

var (
	_ Scheduler      = FCFS{}
	_ Scheduler      = FRFCFS{}
	_ BurstScheduler = FCFS{}
	_ BurstScheduler = FRFCFS{}
)
