package smc

import (
	"fmt"

	"easydram/internal/bender"
	"easydram/internal/clock"
	"easydram/internal/mem"
	"easydram/internal/tile"
)

// Env is the execution environment (the EasyAPI runtime) handed to a
// controller for one scheduling step. It accumulates:
//
//   - chargedFPGA: programmable-core cycles the controller's code consumed,
//   - benderWall: real DRAM-bus time occupied by Bender executions,
//   - modeled: the emulated-system service latency (what the MC counter
//     must advance by under time scaling),
//   - responses produced this step.
//
// The engine resets the Env, runs one controller step, and settles the
// accumulated time into the time-scaling counters.
//
// # Burst segments
//
// A step that serves a row-hit burst (several requests through one Bender
// program) additionally partitions its accumulators into segments, one per
// served request, by calling CloseSegment after each. The engine then
// settles each segment with exactly the arithmetic it would have applied
// to that request's own serial step, which is what keeps burst service
// cycle-exact. A step that closes no segments is settled as a whole — the
// pre-burst behaviour.
type Env struct {
	tile *tile.Tile

	// EmulatedNow is the emulated-system time at the start of the step
	// (set by the engine; the controller uses it for refresh bookkeeping).
	EmulatedNow clock.PS

	chargedFPGA int64
	benderWall  clock.PS
	occupancy   clock.PS
	latency     clock.PS
	responses   []mem.Response
	readback    []bender.ReadLine
	critical    bool

	segs []Segment

	// burstBudget caps how many requests the controller may serve this
	// step; burstGate (engine-installed, optional) is consulted before each
	// extension beyond the first so the engine can cut a burst at the exact
	// point where serving another request would no longer be bit-identical
	// to serial service.
	burstBudget int
	burstGate   func() bool
}

// Segment is one request's slice of a burst step. Charged, Occupancy,
// Latency, and Responses are the accumulator values at the segment's close
// (the engine takes deltas between consecutive segments); Wall is the
// DRAM-bus time of this segment's own commands, excluding the inter-request
// gap that stands in for the serial path's program-launch turnaround.
type Segment struct {
	Charged   int64
	Occupancy clock.PS
	Latency   clock.PS
	Responses int
	Wall      clock.PS
}

// NewEnv returns an Env over t.
func NewEnv(t *tile.Tile) *Env { return &Env{tile: t, burstBudget: 1} }

// Tile returns the underlying tile.
func (e *Env) Tile() *tile.Tile { return e.tile }

// Reset clears per-step accumulators.
func (e *Env) Reset(emulatedNow clock.PS) {
	e.EmulatedNow = emulatedNow
	e.chargedFPGA = 0
	e.benderWall = 0
	e.occupancy = 0
	e.latency = 0
	e.responses = e.responses[:0]
	e.readback = e.readback[:0]
	e.segs = e.segs[:0]
}

// Charge accounts n programmable-core cycles.
func (e *Env) Charge(n int) { e.chargedFPGA += int64(n) }

// ChargedFPGA reports the cycles charged this step.
func (e *Env) ChargedFPGA() int64 { return e.chargedFPGA }

// BenderWall reports DRAM-bus wall time consumed this step.
func (e *Env) BenderWall() clock.PS { return e.benderWall }

// AddService credits the modeled service cost of the scheduling step:
// occupancy is the time the memory system cannot serve other requests (bus
// and bank occupancy — what the MC counter advances by); latency is the
// request's own service latency (occupancy plus pipelined tail such as CAS
// latency — what the response release tag is computed from).
func (e *Env) AddService(occupancy, latency clock.PS) {
	e.occupancy += occupancy
	e.latency += latency
}

// Occupancy reports the accumulated modeled occupancy.
func (e *Env) Occupancy() clock.PS { return e.occupancy }

// Latency reports the accumulated modeled service latency.
func (e *Env) Latency() clock.PS { return e.latency }

// SetBurst configures the step's burst policy: budget is the maximum
// requests one step may serve (<=1 disables coalescing); gate, when
// non-nil, is asked before every extension beyond the winner. The engine
// sets both once per run (the gate closure reads live engine state) and
// adjusts the budget per step.
func (e *Env) SetBurst(budget int, gate func() bool) {
	if budget < 1 {
		budget = 1
	}
	e.burstBudget = budget
	e.burstGate = gate
}

// SetBurstBudget adjusts the budget without touching the installed gate
// (the engine binds the gate closure once per run and retunes the budget per
// step, keeping the hot path allocation-free).
func (e *Env) SetBurstBudget(budget int) {
	if budget < 1 {
		budget = 1
	}
	e.burstBudget = budget
}

// BurstBudget reports the maximum requests this step may serve.
func (e *Env) BurstBudget() int { return e.burstBudget }

// ExtendBurst reports whether the controller may serve one more request in
// the current step (consulted after each CloseSegment).
func (e *Env) ExtendBurst() bool {
	if len(e.segs) >= e.burstBudget {
		return false
	}
	return e.burstGate == nil || e.burstGate()
}

// CloseSegment ends the current burst segment, attributing wall bus time to
// it (the segment's own commands only; inter-request gaps belong to no
// segment, mirroring the serial path where the program-launch turnaround is
// dead bus time nobody is charged for).
func (e *Env) CloseSegment(wall clock.PS) {
	e.segs = append(e.segs, Segment{
		Charged:   e.chargedFPGA,
		Occupancy: e.occupancy,
		Latency:   e.latency,
		Responses: len(e.responses),
		Wall:      wall,
	})
}

// Segments returns the burst segments closed this step (empty for ordinary
// single-request steps, which the engine settles as a whole).
func (e *Env) Segments() []Segment { return e.segs }

// AbsorbTrailingCharge folds FPGA cycles charged after the last
// CloseSegment into that segment. The serial path's final step charges its
// critical-mode exit inside the step; the burst path performs the exit
// after the last request's segment closed, and this reassigns the charge to
// where serial accounting puts it.
func (e *Env) AbsorbTrailingCharge() {
	if n := len(e.segs); n > 0 {
		e.segs[n-1].Charged = e.chargedFPGA
	}
}

// SetCritical records the controller's critical-mode intent; the engine
// reflects it into the time-scaling counters.
func (e *Env) SetCritical(on bool) {
	costs := e.tile.Costs()
	if on {
		e.Charge(costs.CriticalEnter)
	} else {
		e.Charge(costs.CriticalExit)
	}
	e.critical = on
}

// Critical reports the controller's critical-mode intent.
func (e *Env) Critical() bool { return e.critical }

// Exec flushes the built command batch to DRAM Bender and executes it,
// charging transfer and launch costs (EasyAPI flush_commands). The result
// is the tile's own (see tile.Tile.Exec): valid until the tile's next
// exec.
func (e *Env) Exec() (*bender.Result, error) {
	costs := e.tile.Costs()
	n := e.tile.Builder().Len()
	e.Charge(costs.BuildPerInstr*n + costs.FlushLaunch + costs.FlushPerInstr*n)
	return e.ExecPrecharged()
}

// ExecPrecharged executes the built command batch without charging build or
// flush costs. The burst service path uses it: a burst program's transfer
// and launch costs are charged per segment, sized as the serial path's
// per-request programs, so the one real execution must not charge again.
func (e *Env) ExecPrecharged() (*bender.Result, error) {
	res, rb, err := e.tile.Exec()
	if err != nil {
		return res, fmt.Errorf("smc: %w", err)
	}
	e.benderWall += res.Elapsed
	e.readback = append(e.readback, rb...)
	return res, nil
}

// ExecAccess executes the built command batch for a plain cache-line access
// step: charged like Exec, but read data is dropped instead of buffered —
// access responses carry no data, so nobody ever consumes it. The result
// is valid until the tile's next exec.
func (e *Env) ExecAccess() (*bender.Result, error) {
	costs := e.tile.Costs()
	n := e.tile.Builder().Len()
	e.Charge(costs.BuildPerInstr*n + costs.FlushLaunch + costs.FlushPerInstr*n)
	return e.ExecAccessPrecharged()
}

// ExecAccessPrecharged is ExecAccess without the build and flush charges
// (the burst path charges them per segment).
func (e *Env) ExecAccessPrecharged() (*bender.Result, error) {
	res, err := e.tile.ExecDiscardReads()
	if err != nil {
		return res, fmt.Errorf("smc: %w", err)
	}
	e.benderWall += res.Elapsed
	return res, nil
}

// Readback returns lines read by Bender executions this step.
func (e *Env) Readback() []bender.ReadLine { return e.readback }

// AddBenderWall accounts DRAM-bus wall time for an execution the
// controller ran against the tile directly (bulk profiling consumes the
// tile's readback in place instead of buffering it through the Env).
func (e *Env) AddBenderWall(d clock.PS) { e.benderWall += d }

// Respond enqueues the response for the request with the given ID (EasyAPI
// enqueue_response). The engine computes the response's release point when
// settling the step.
func (e *Env) Respond(id uint64, ok bool) {
	e.Charge(e.tile.Costs().Respond)
	e.responses = append(e.responses, mem.Response{ReqID: id, OK: ok})
}

// RespondLines enqueues a response carrying per-line detail: ProfileRow
// requests report the leading reliable line count and, for bank stripes,
// the per-row leading-line counts (rowLines may be nil for single rows).
func (e *Env) RespondLines(id uint64, ok bool, lines int, rowLines []int) {
	e.Charge(e.tile.Costs().Respond)
	e.responses = append(e.responses, mem.Response{ReqID: id, OK: ok, Lines: lines, RowLines: rowLines})
}

// Responses returns the responses produced this step. Release points are
// engine-private (tracked in its release queue keyed by ReqID), not part
// of the response.
func (e *Env) Responses() []mem.Response { return e.responses }
