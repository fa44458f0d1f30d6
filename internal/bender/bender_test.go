package bender

import (
	"bytes"
	"testing"

	"easydram/internal/clock"
	"easydram/internal/dram"
	"easydram/internal/timing"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatalf("dram.New: %v", err)
	}
	return NewEngine(chip, 64)
}

func TestOpString(t *testing.T) {
	if OpACT.String() != "ACT" || OpWAIT.String() != "WAIT" {
		t.Fatalf("op names wrong")
	}
	in := Instr{Op: OpACT, A: 1, B: 2}
	if in.String() != "ACT 1,2,0" {
		t.Fatalf("instr string: %q", in.String())
	}
}

func TestExecReadWrite(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	b := NewBuilder(p)
	data := bytes.Repeat([]byte{0x42}, dram.LineBytes)
	b.ACT(0, 5)
	b.Wait(p.TRCD)
	b.WR(0, 9, data)
	b.Wait(p.TCWL + p.TBL + p.TWR)
	b.PRE(0)
	b.Wait(p.TRP)
	b.ACT(0, 5)
	b.Wait(p.TRCD)
	b.RD(0, 9)

	var res Result
	if err := e.Exec(&res, b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Commands != 5 || res.Reads != 1 {
		t.Fatalf("commands=%d reads=%d", res.Commands, res.Reads)
	}
	rb := e.Readback()
	if len(rb) != 1 || !rb[0].Reliable || !bytes.Equal(rb[0].Data[:], data) {
		t.Fatalf("readback wrong: %+v", rb)
	}
}

func TestExecElapsedMatchesWaits(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	prog := []Instr{
		{Op: OpACT, A: 0, B: 0},
		{Op: OpWAIT, A: 10},
		{Op: OpPRE, A: 0},
		{Op: OpEND},
	}
	var res Result
	if err := e.Exec(&res, prog, 0, nil); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	want := 12 * p.Bus.Period() // ACT slot + 10 waits + PRE slot
	if res.Elapsed != want {
		t.Fatalf("elapsed = %v, want %v", res.Elapsed, want)
	}
}

func TestLoops(t *testing.T) {
	e := newTestEngine(t)
	b := NewBuilder(e.Chip().Timing())
	count := 0
	b.Loop(0, 5, func(b *Builder) {
		b.Emit(Instr{Op: OpNOP})
		count++
	})
	var res Result
	if err := e.Exec(&res, b.Program(), 0, nil); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	// 5 iterations x 1 NOP = 5 bus cycles of NOPs.
	if res.Elapsed < 5*e.Chip().Timing().Bus.Period() {
		t.Fatalf("loop did not execute 5 times: %v", res.Elapsed)
	}
}

func TestRunawayProgramAborts(t *testing.T) {
	e := newTestEngine(t)
	prog := []Instr{{Op: OpJMP, A: 0}} // infinite loop
	if err := e.Exec(&Result{}, prog, 0, nil); err == nil {
		t.Fatalf("infinite loop must abort")
	}
}

func TestBadRegisterFails(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Exec(&Result{}, []Instr{{Op: OpLDI, A: 99, B: 1}}, 0, nil); err == nil {
		t.Fatalf("register out of range must error")
	}
}

func TestNegativeWaitFails(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Exec(&Result{}, []Instr{{Op: OpWAIT, A: -1}}, 0, nil); err == nil {
		t.Fatalf("negative WAIT must error")
	}
}

func TestReadbackOverflow(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(chip, 2)
	b := NewBuilder(chip.Timing())
	b.ACT(0, 0)
	b.Wait(chip.Timing().TRCD)
	for i := 0; i < 3; i++ {
		b.RD(0, i)
		b.Wait(chip.Timing().TCCDL)
	}
	if err := e.Exec(&Result{}, b.Program(), 0, b.WriteBuf()); err == nil {
		t.Fatalf("readback overflow must error")
	}
}

func TestDrainReadback(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	b := NewBuilder(p)
	b.ReadSequence(dram.Addr{Bank: 0, Row: 1, Col: 2})
	if err := e.Exec(&Result{}, b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatal(err)
	}
	if len(e.DrainReadback()) != 1 {
		t.Fatalf("expected one line")
	}
	if len(e.Readback()) != 0 {
		t.Fatalf("drain must empty the buffer")
	}
}

func TestRowCloneBuilderClones(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	cfg.ClonableFraction = 1
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(chip, 16)
	b := NewBuilder(chip.Timing())
	b.RowClone(2, 100, 101)
	var res Result
	if err := e.Exec(&res, b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.CloneAttempts != 1 || res.CloneSuccesses != 1 {
		t.Fatalf("clone attempts=%d successes=%d", res.CloneAttempts, res.CloneSuccesses)
	}
	if chip.OpenRow(2) != -1 {
		t.Fatalf("RowClone sequence must leave the bank precharged")
	}
}

func TestReadSequenceIsStandardCompliant(t *testing.T) {
	e := newTestEngine(t)
	b := NewBuilder(e.Chip().Timing())
	b.ReadSequence(dram.Addr{Bank: 3, Row: 7, Col: 1})
	if err := e.Exec(&Result{}, b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatal(err)
	}
	if got := e.Chip().Stats().TimingViolations; got != 0 {
		t.Fatalf("ReadSequence produced %d timing violations", got)
	}
	rb := e.Readback()
	if len(rb) != 1 || !rb[0].Reliable {
		t.Fatalf("nominal read must be reliable")
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(dram.DefaultConfig().Timing)
	b.ACT(0, 0).PRE(0)
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 || len(b.WriteBuf()) != 0 {
		t.Fatalf("Reset did not clear builder")
	}
}

func TestWRNilDataKeepsContents(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	addr := dram.Addr{Bank: 0, Row: 3, Col: 4}
	want := bytes.Repeat([]byte{0x99}, dram.LineBytes)
	e.Chip().PokeLine(addr, want)

	b := NewBuilder(p)
	b.ACT(0, 3)
	b.Wait(p.TRCD)
	b.WR(0, 4, nil) // timing-only write
	b.Wait(p.TCWL + p.TBL)
	b.RD(0, 4)
	if err := e.Exec(&Result{}, b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatal(err)
	}
	rb := e.Readback()
	if !bytes.Equal(rb[0].Data[:], want) {
		t.Fatalf("nil-data WR must not change stored contents")
	}
}

func TestFallThroughEndTerminates(t *testing.T) {
	e := newTestEngine(t)
	var res Result
	if err := e.Exec(&res, []Instr{{Op: OpNOP}}, 0, nil); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Elapsed != clock.PS(e.Chip().Timing().Bus.Period()) {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}
}

func TestBitwiseMAJBuilder(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	cfg.Ideal = true
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(chip, 16)
	b := NewBuilder(chip.Timing())
	b.BitwiseMAJ(0, 4, 2)
	var res Result
	if err := e.Exec(&res, b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.CloneAttempts != 1 || res.CloneSuccesses != 1 {
		t.Fatalf("bitwise activation not reported: %+v", res)
	}
	if chip.Stats().BitwiseOps != 1 {
		t.Fatalf("chip did not record the bitwise op")
	}
	if chip.OpenRow(0) != -1 {
		t.Fatalf("sequence must leave the bank precharged")
	}
}

// recordingDevice wraps a Chip and keeps a copy of every line its Read
// produced, so a test can compare the readback buffer against the chip's
// own output.
type recordingDevice struct {
	*dram.Chip
	reads []ReadLine
}

func (d *recordingDevice) Read(bank, col int, t clock.PS, dst []byte) (bool, error) {
	rel, err := d.Chip.Read(bank, col, t, dst)
	if err == nil {
		line := ReadLine{Reliable: rel}
		copy(line.Data[:], dst)
		d.reads = append(d.reads, line)
	}
	return rel, err
}

func TestReadbackMatchesChipReads(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.RowsPerBank = 4096
	chip, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := &recordingDevice{Chip: chip}
	e := NewEngine(dev, 64)
	p := chip.Timing()
	b := NewBuilder(p)
	for col := 0; col < 8; col++ {
		chip.PokeLine(dram.Addr{Bank: 1, Row: 9, Col: col}, bytes.Repeat([]byte{byte(0x10 + col)}, dram.LineBytes))
		rcd := p.TRCD
		if col%2 == 1 {
			rcd = 2 * clock.Nanosecond // far below any line's minimum
		}
		b.ProfileCheck(dram.Addr{Bank: 1, Row: 9, Col: col}, rcd)
	}
	if err := e.Exec(&Result{}, b.Program(), 0, b.WriteBuf()); err != nil {
		t.Fatal(err)
	}
	rb := e.Readback()
	if len(rb) != len(dev.reads) || len(rb) != 8 {
		t.Fatalf("readback holds %d lines, chip produced %d, want 8", len(rb), len(dev.reads))
	}
	reliable := 0
	for i := range rb {
		if rb[i] != dev.reads[i] {
			t.Fatalf("line %d: readback %+v, chip produced %+v", i, rb[i], dev.reads[i])
		}
		if rb[i].Reliable {
			reliable++
		}
	}
	if reliable == 0 || reliable == len(rb) {
		t.Fatalf("want a mix of reliable and unreliable reads, got %d of %d reliable", reliable, len(rb))
	}
}

func TestReusedReadbackSlotClearsLinkCorrupt(t *testing.T) {
	e := newTestEngine(t)
	want := bytes.Repeat([]byte{0x5a}, dram.LineBytes)
	addr := dram.Addr{Bank: 2, Row: 4, Col: 3}
	e.Chip().PokeLine(addr, want)
	b := NewBuilder(e.Chip().Timing())
	b.ReadSequence(addr).PrechargeAfterRead(addr.Bank)
	prog := b.Program()
	if err := e.Exec(&Result{}, prog, 0, nil); err != nil {
		t.Fatal(err)
	}
	e.Readback()[0].LinkCorrupt = true // as the tile's link model marks it
	e.DrainReadback()
	if err := e.Exec(&Result{}, prog, clock.Microsecond, nil); err != nil {
		t.Fatal(err)
	}
	rb := e.Readback()
	if len(rb) != 1 || rb[0].LinkCorrupt || !rb[0].Reliable || !bytes.Equal(rb[0].Data[:], want) {
		t.Fatalf("reused slot carries stale state: %+v", rb)
	}
}

func TestFailedReadLeavesReadbackUnchanged(t *testing.T) {
	e := newTestEngine(t)
	b := NewBuilder(e.Chip().Timing())
	b.ReadSequence(dram.Addr{Bank: 0, Row: 1, Col: 2})
	if err := e.Exec(&Result{}, b.Program(), 0, nil); err != nil {
		t.Fatal(err)
	}
	before := append([]ReadLine(nil), e.Readback()...)
	// Bank 5 was never activated: the RD fails after the buffer check.
	if err := e.Exec(&Result{}, []Instr{{Op: OpRD, A: 5, B: 0}}, clock.Microsecond, nil); err == nil {
		t.Fatal("RD on a precharged bank must fail")
	}
	rb := e.Readback()
	if len(rb) != len(before) || rb[0] != before[0] {
		t.Fatalf("failed RD changed the readback buffer: %d lines, want %d", len(rb), len(before))
	}
}

func TestStageWriteReusePadsShortData(t *testing.T) {
	b := NewBuilder(dram.DefaultConfig().Timing)
	b.StageWrite(bytes.Repeat([]byte{0xff}, dram.LineBytes))
	first := &b.WriteBuf()[0][0]
	b.Reset()
	short := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	idx := b.StageWrite(short)
	got := b.WriteBuf()[idx]
	if &got[0] != first {
		t.Fatal("StageWrite after Reset must reuse the builder's line buffer")
	}
	want := make([]byte, dram.LineBytes)
	copy(want, short)
	if !bytes.Equal(got, want) {
		t.Fatalf("staged line = %x, want %x", got, want)
	}
}

func TestStageWriteEntriesDistinct(t *testing.T) {
	b := NewBuilder(dram.DefaultConfig().Timing)
	b.StageWrite(make([]byte, dram.LineBytes))
	b.StageWrite(make([]byte, dram.LineBytes))
	b.Reset()
	x := bytes.Repeat([]byte{0xaa}, dram.LineBytes)
	y := bytes.Repeat([]byte{0x55}, dram.LineBytes)
	i, j := b.StageWrite(x), b.StageWrite(y)
	wr := b.WriteBuf()
	if i == j || &wr[i][0] == &wr[j][0] {
		t.Fatalf("entries %d and %d share a buffer", i, j)
	}
	if !bytes.Equal(wr[i], x) || !bytes.Equal(wr[j], y) {
		t.Fatalf("staged contents wrong: %x / %x", wr[i], wr[j])
	}
}

func TestWRStoresDataWithReusedBuffer(t *testing.T) {
	e := newTestEngine(t)
	p := e.Chip().Timing()
	b := NewBuilder(p)
	write := func(col int, data []byte, start clock.PS) {
		t.Helper()
		b.Reset()
		b.WriteSequence(dram.Addr{Bank: 0, Row: 6, Col: col}, data)
		b.Wait(p.TCWL + p.TBL + p.TWR)
		b.PRE(0)
		b.Wait(p.TRP)
		if err := e.Exec(&Result{}, b.Program(), start, b.WriteBuf()); err != nil {
			t.Fatal(err)
		}
	}
	x := bytes.Repeat([]byte{0x11}, dram.LineBytes)
	y := bytes.Repeat([]byte{0x22}, dram.LineBytes)
	write(0, x, 0)
	write(1, y, clock.Microsecond) // stages y into the buffer that held x
	got := make([]byte, dram.LineBytes)
	for col, want := range [][]byte{x, y} {
		if !e.Chip().PeekLine(dram.Addr{Bank: 0, Row: 6, Col: col}, got) || !bytes.Equal(got, want) {
			t.Fatalf("col %d holds %x, want %x", col, got, want)
		}
	}
}

// openRow5 opens row 5 of bank 0 (the setup program of the open-row cases).
func openRow5(b *Builder, p timing.Params) {
	b.ACT(0, 5)
	b.Wait(p.TRCD)
}

// TestExecResultInPlace pins the in-place result contract: Exec and
// ExecDiscardReads overwrite the caller's Result — whatever it held — with
// exactly the values the by-value Exec returned before results moved into
// caller-owned storage, including the partial counts of a program that
// fails part-way (Elapsed stays zero then). The programs are the access
// service's shapes plus REF, a loop, a reduced-tRCD read, RowClone, and
// the three malformed-program failures.
func TestExecResultInPlace(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxRead int // 0 selects 64 lines
		setup   func(*Builder, timing.Params)
		build   func(*Builder, timing.Params)
		// want is the buffered result, wantDiscard the discarding one when
		// it differs (the readback limit binds buffered runs only).
		want, wantDiscard Result
		wantErr           bool
	}{
		{name: "row hit", setup: openRow5,
			build: func(b *Builder, _ timing.Params) { b.RD(0, 9) },
			want:  Result{Elapsed: 1500, Commands: 1, Reads: 1}},
		{name: "closed row",
			build: func(b *Builder, _ timing.Params) { b.ReadSequence(dram.Addr{Bank: 0, Row: 5, Col: 9}) },
			want:  Result{Elapsed: 15000, Commands: 2, Reads: 1}},
		{name: "row conflict", setup: openRow5,
			build: func(b *Builder, p timing.Params) {
				b.PRE(0)
				b.Wait(p.TRP - p.Bus.Period())
				b.ACTWithRCD(0, 6, p.TRCD)
				b.Wait(p.TRCD - p.Bus.Period())
				b.WR(0, 3, nil)
			},
			want: Result{Elapsed: 28500, Commands: 3}},
		{name: "closed-page PRE", setup: openRow5,
			build: func(b *Builder, p timing.Params) { b.Wait(p.TRTP); b.PRE(0) },
			want:  Result{Elapsed: 9000, Commands: 1}},
		{name: "REF", setup: openRow5,
			build: func(b *Builder, p timing.Params) { b.PRE(0); b.Wait(p.TRP); b.REF() },
			want:  Result{Elapsed: 365000, Commands: 2}},
		{name: "loop", setup: openRow5,
			build: func(b *Builder, p timing.Params) {
				b.Loop(1, 4, func(b *Builder) { b.RD(0, 2); b.Wait(p.TCCDL) })
			},
			want: Result{Elapsed: 42000, Commands: 4, Reads: 4}},
		{name: "reduced tRCD",
			build: func(b *Builder, p timing.Params) {
				b.ACTWithRCD(2, 11, 3*p.Bus.Period())
				b.Wait(2 * p.Bus.Period())
				for c := 0; c < 8; c++ {
					b.RD(2, c)
					b.Wait(p.TCCDL)
				}
			},
			want: Result{Elapsed: 88500, Commands: 9, Reads: 8, UnreliableReads: 1}},
		{name: "row clone",
			build: func(b *Builder, _ timing.Params) { b.RowClone(2, 100, 101) },
			want:  Result{Elapsed: 156000, Commands: 4, CloneAttempts: 1, CloneSuccesses: 1}},
		{name: "negative WAIT", wantErr: true,
			build: func(b *Builder, _ timing.Params) {
				b.ACT(1, 7)
				b.Emit(Instr{Op: OpWAIT, A: -1})
			},
			want: Result{Commands: 1}},
		{name: "bad register", setup: openRow5, wantErr: true,
			build: func(b *Builder, _ timing.Params) {
				b.RD(0, 1)
				b.Emit(Instr{Op: OpLDI, A: NumRegs, B: 1})
			},
			want: Result{Commands: 1, Reads: 1}},
		{name: "readback overflow", maxRead: 2, setup: openRow5, wantErr: true,
			build: func(b *Builder, p timing.Params) {
				for i := 0; i < 3; i++ {
					b.RD(0, i)
					b.Wait(p.TCCDL)
				}
			},
			want:        Result{Commands: 2, Reads: 2},
			wantDiscard: Result{Elapsed: 31500, Commands: 3, Reads: 3}},
	} {
		for _, discard := range []bool{false, true} {
			cfg := dram.DefaultConfig()
			cfg.RowsPerBank = 4096
			chip, err := dram.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			maxRead := tc.maxRead
			if maxRead == 0 {
				maxRead = 64
			}
			e := NewEngine(chip, maxRead)
			p := chip.Timing()
			if tc.setup != nil {
				b := NewBuilder(p)
				tc.setup(b, p)
				if err := e.Exec(&Result{}, b.Program(), 0, b.WriteBuf()); err != nil {
					t.Fatal(err)
				}
			}
			b := NewBuilder(p)
			tc.build(b, p)
			// Stale contents the exec must overwrite.
			res := Result{Elapsed: 7, Commands: 7, Reads: 7, UnreliableReads: 7, CloneAttempts: 7, CloneSuccesses: 7, LaunchFailed: true}
			want, wantErr := tc.want, tc.wantErr
			if discard {
				err = e.ExecDiscardReads(&res, b.Program(), clock.Microsecond, b.WriteBuf())
				if tc.wantDiscard != (Result{}) {
					want, wantErr = tc.wantDiscard, false
				}
			} else {
				err = e.Exec(&res, b.Program(), clock.Microsecond, b.WriteBuf())
			}
			if (err != nil) != wantErr {
				t.Errorf("%s (discard=%v): err = %v, want error %v", tc.name, discard, err, wantErr)
			}
			if res != want {
				t.Errorf("%s (discard=%v): result %+v, want %+v", tc.name, discard, res, want)
			}
		}
	}
}
