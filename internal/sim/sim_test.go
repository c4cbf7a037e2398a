package sim

import (
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/logic"
)

func elaborate(t *testing.T, src, top string) *elab.Design {
	t.Helper()
	ast, err := hdl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := elab.Elaborate(ast, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return d
}

func newSim(t *testing.T, src, top string) *Simulator {
	t.Helper()
	s, err := New(elaborate(t, src, top))
	if err != nil {
		t.Fatalf("new simulator: %v", err)
	}
	return s
}

func mustPoke(t *testing.T, s *Simulator, name string, v logic.BV) {
	t.Helper()
	if err := s.Poke(name, v); err != nil {
		t.Fatal(err)
	}
}

func peekU(t *testing.T, s *Simulator, name string) uint64 {
	t.Helper()
	v, err := s.Peek(name)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := v.Uint64()
	if !ok {
		t.Fatalf("%s = %v has unknown bits", name, v)
	}
	return u
}

const combSrc = `
module comb (input [7:0] a, input [7:0] b, input sel, output [7:0] y, output [7:0] sum);
  wire [7:0] na;
  assign na = ~a;
  assign y = sel ? na : b;
  assign sum = a + b;
endmodule`

func TestCombinational(t *testing.T) {
	s := newSim(t, combSrc, "comb")
	mustPoke(t, s, "a", logic.FromUint64(8, 0x0F))
	mustPoke(t, s, "b", logic.FromUint64(8, 0x30))
	mustPoke(t, s, "sel", logic.Ones(1))
	if got := peekU(t, s, "y"); got != 0xF0 {
		t.Errorf("y = %#x, want 0xF0", got)
	}
	if got := peekU(t, s, "sum"); got != 0x3F {
		t.Errorf("sum = %#x", got)
	}
	mustPoke(t, s, "sel", logic.Zero(1))
	if got := peekU(t, s, "y"); got != 0x30 {
		t.Errorf("y = %#x, want 0x30", got)
	}
	// X select merges.
	mustPoke(t, s, "sel", logic.X(1))
	v, _ := s.Peek("y")
	if v.IsFullyDefined() {
		t.Errorf("y with X select should have X bits where branches differ: %v", v)
	}
}

const counterSrc = `
module counter (input clk_i, input rst_ni, input en, output reg [7:0] q);
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 8'd0;
    else if (en) q <= q + 8'd1;
  end
endmodule`

func TestSequentialCounter(t *testing.T) {
	s := newSim(t, counterSrc, "counter")
	info := DetectClockReset(s.Design())
	if info.Clock != s.SignalIndex("clk_i") {
		t.Fatalf("clock detected as %d", info.Clock)
	}
	if info.Reset != s.SignalIndex("rst_ni") || !info.ActiveLow {
		t.Fatalf("reset detection wrong: %+v", info)
	}
	if err := s.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	if got := peekU(t, s, "q"); got != 0 {
		t.Fatalf("after reset q = %d", got)
	}
	mustPoke(t, s, "en", logic.Ones(1))
	for i := 0; i < 5; i++ {
		if err := s.Tick(info.Clock); err != nil {
			t.Fatal(err)
		}
	}
	if got := peekU(t, s, "q"); got != 5 {
		t.Errorf("q = %d, want 5", got)
	}
	mustPoke(t, s, "en", logic.Zero(1))
	_ = s.Tick(info.Clock)
	if got := peekU(t, s, "q"); got != 5 {
		t.Errorf("q moved while disabled: %d", got)
	}
	// Async reset mid-run.
	mustPoke(t, s, "rst_ni", logic.Zero(1))
	if got := peekU(t, s, "q"); got != 0 {
		t.Errorf("async reset did not clear q: %d", got)
	}
}

func TestXAtPowerOn(t *testing.T) {
	s := newSim(t, counterSrc, "counter")
	v, _ := s.Peek("q")
	if v.IsFullyDefined() {
		t.Errorf("register should be X before reset, got %v", v)
	}
}

const swapSrc = `
module swap (input clk, input rst, input [3:0] seed, output reg [3:0] x, output reg [3:0] y);
  always_ff @(posedge clk) begin
    if (rst) begin
      x <= seed;
      y <= seed + 4'd1;
    end else begin
      x <= y;
      y <= x;
    end
  end
endmodule`

func TestNonBlockingSwap(t *testing.T) {
	s := newSim(t, swapSrc, "swap")
	clk := s.SignalIndex("clk")
	mustPoke(t, s, "rst", logic.Ones(1))
	mustPoke(t, s, "seed", logic.FromUint64(4, 3))
	_ = s.Tick(clk)
	mustPoke(t, s, "rst", logic.Zero(1))
	if peekU(t, s, "x") != 3 || peekU(t, s, "y") != 4 {
		t.Fatalf("seed failed: x=%d y=%d", peekU(t, s, "x"), peekU(t, s, "y"))
	}
	_ = s.Tick(clk)
	// Non-blocking semantics: true swap, not shift.
	if peekU(t, s, "x") != 4 || peekU(t, s, "y") != 3 {
		t.Errorf("swap failed: x=%d y=%d", peekU(t, s, "x"), peekU(t, s, "y"))
	}
}

const hierSrc = `
module inv #(parameter W = 4) (input [3:0] a, output [3:0] y);
  assign y = ~a;
endmodule
module top (input [3:0] in, output [3:0] out);
  wire [3:0] mid;
  inv u0 (.a(in), .y(mid));
  inv u1 (.a(mid), .y(out));
endmodule`

func TestHierarchy(t *testing.T) {
	s := newSim(t, hierSrc, "top")
	mustPoke(t, s, "in", logic.FromUint64(4, 0b1010))
	if got := peekU(t, s, "out"); got != 0b1010 {
		t.Errorf("double inverter out = %04b", got)
	}
	if got := peekU(t, s, "u0.y"); got != 0b0101 {
		t.Errorf("u0.y = %04b", got)
	}
}

const memSrc = `
module regfile (input clk, input we, input [3:0] waddr, input [7:0] wdata,
                input [3:0] raddr, output [7:0] rdata);
  reg [7:0] store [0:15];
  assign rdata = store[raddr];
  always_ff @(posedge clk) begin
    if (we) store[waddr] <= wdata;
  end
endmodule`

func TestMemory(t *testing.T) {
	s := newSim(t, memSrc, "regfile")
	clk := s.SignalIndex("clk")
	mustPoke(t, s, "clk", logic.Zero(1))
	mustPoke(t, s, "we", logic.Ones(1))
	mustPoke(t, s, "waddr", logic.FromUint64(4, 7))
	mustPoke(t, s, "wdata", logic.FromUint64(8, 0xAB))
	_ = s.Tick(clk)
	mustPoke(t, s, "we", logic.Zero(1))
	mustPoke(t, s, "raddr", logic.FromUint64(4, 7))
	if got := peekU(t, s, "rdata"); got != 0xAB {
		t.Errorf("rdata = %#x", got)
	}
	// Unwritten word reads X.
	mustPoke(t, s, "raddr", logic.FromUint64(4, 3))
	v, _ := s.Peek("rdata")
	if v.IsFullyDefined() {
		t.Errorf("unwritten word should be X, got %v", v)
	}
}

// The paper's Listing 1 ALU.
const aluSrc = `
module ALU (input nrst, input [15:0] A,
  input [15:0] B, input [3:0] op, output reg [15:0] Out);
  typedef enum logic [2:0] {INIT = 0, ADD = 1,
      SUB = 2, AND_ = 3, OR_ = 4, XOR_ = 5} state_t;
  state_t state;
  logic OPmode;
  always_comb begin : resetLogic
      if (!nrst) state = 0;
      else begin
        state = op[2:0];
        OPmode = op[3];
      end
  end
  always_comb begin : FSM
      if (OPmode) begin
          Out[15:8] = 0;
          case (state)
              INIT: Out[7:0] = 0;
              ADD:  Out[7:0] = A[7:0] + B[7:0];
              SUB:  Out[7:0] = A[7:0] - B[7:0];
              default: Out = 0;
          endcase
      end else begin
          case (state)
              INIT: Out = 0;
              ADD:  Out = A + B;
              SUB:  Out = A - B;
              default: Out = 0;
          endcase
      end
  end
endmodule`

func TestALU(t *testing.T) {
	s := newSim(t, aluSrc, "ALU")
	mustPoke(t, s, "nrst", logic.Ones(1))
	mustPoke(t, s, "A", logic.FromUint64(16, 300))
	mustPoke(t, s, "B", logic.FromUint64(16, 100))
	// 16-bit ADD (OPmode=0, state=ADD=1): op = 0001
	mustPoke(t, s, "op", logic.FromUint64(4, 0b0001))
	if got := peekU(t, s, "Out"); got != 400 {
		t.Errorf("16-bit add = %d", got)
	}
	// 8-bit ADD (OPmode=1): op = 1001 -> low bytes only: 300&255=44, 100 -> 144
	mustPoke(t, s, "op", logic.FromUint64(4, 0b1001))
	if got := peekU(t, s, "Out"); got != 144 {
		t.Errorf("8-bit add = %d", got)
	}
	// Reset drives state to INIT.
	mustPoke(t, s, "nrst", logic.Zero(1))
	if got := peekU(t, s, "state"); got != 0 {
		t.Errorf("state after reset = %d", got)
	}
}

func TestBranchTracing(t *testing.T) {
	s := newSim(t, aluSrc, "ALU")
	var events [][2]int
	s.SetTracer(tracerFunc(func(id, arm int) { events = append(events, [2]int{id, arm}) }))
	mustPoke(t, s, "nrst", logic.Ones(1))
	mustPoke(t, s, "op", logic.FromUint64(4, 0b0001))
	if len(events) == 0 {
		t.Fatal("no branch events traced")
	}
	if s.Design().Branches < 4 {
		t.Errorf("expected >=4 instrumented branches, got %d", s.Design().Branches)
	}
}

type tracerFunc func(id, arm int)

func (f tracerFunc) Branch(id, arm int) { f(id, arm) }

func TestSnapshotRestore(t *testing.T) {
	s := newSim(t, counterSrc, "counter")
	info := DetectClockReset(s.Design())
	if err := s.ApplyReset(info, 1); err != nil {
		t.Fatal(err)
	}
	mustPoke(t, s, "en", logic.Ones(1))
	for i := 0; i < 3; i++ {
		_ = s.Tick(info.Clock)
	}
	snap := s.Snapshot()
	for i := 0; i < 4; i++ {
		_ = s.Tick(info.Clock)
	}
	if got := peekU(t, s, "q"); got != 7 {
		t.Fatalf("q = %d", got)
	}
	s.Restore(snap)
	if got := peekU(t, s, "q"); got != 3 {
		t.Errorf("restored q = %d, want 3", got)
	}
	if s.Cycle() != snap.Cycle {
		t.Errorf("cycle not restored")
	}
	// Re-running from the snapshot is deterministic.
	for i := 0; i < 4; i++ {
		_ = s.Tick(info.Clock)
	}
	if got := peekU(t, s, "q"); got != 7 {
		t.Errorf("replay q = %d, want 7", got)
	}
}

func TestCycleListener(t *testing.T) {
	s := newSim(t, counterSrc, "counter")
	n := 0
	s.OnCycle(func(DUV) { n++ })
	info := DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 2)
	for i := 0; i < 3; i++ {
		_ = s.Tick(info.Clock)
	}
	if n != 5 { // 2 reset cycles + 3 ticks
		t.Errorf("listener fired %d times, want 5", n)
	}
}

const loopSrc = `
module osc (input a, output w1);
  wire w2;
  assign w1 = ~w2 | a;
  assign w2 = w1 & ~a;
endmodule`

func TestCombLoopDetected(t *testing.T) {
	ast, err := hdl.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, "osc", nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(d)
	if err != nil {
		return // loop detected at init: acceptable
	}
	if err := s.Poke("a", logic.Zero(1)); err == nil {
		// The loop may stabilize for some inputs; force the unstable one.
		err = s.Poke("a", logic.Ones(1))
		_ = err
	}
}

const initSrc = `
module ini (input clk, output [3:0] v);
  reg [3:0] r = 4'd9;
  assign v = r;
endmodule`

func TestDeclarationInitializer(t *testing.T) {
	s := newSim(t, initSrc, "ini")
	if got := peekU(t, s, "v"); got != 9 {
		t.Errorf("initialized reg = %d", got)
	}
}

func TestForLoopUnrolled(t *testing.T) {
	src := `
module rev (input [7:0] d, output reg [7:0] q);
  always_comb begin
    for (int i = 0; i < 8; i++) begin
      q[i] = d[7 - i];
    end
  end
endmodule`
	s := newSim(t, src, "rev")
	mustPoke(t, s, "d", logic.MustFromString("11010010"))
	v, _ := s.Peek("q")
	if v.BitString() != "01001011" {
		t.Errorf("reversed = %s", v.BitString())
	}
}

func TestParameterOverride(t *testing.T) {
	src := `
module adder #(parameter W = 4, parameter STEP = 1) (input [7:0] a, output [7:0] y);
  assign y = a + STEP;
endmodule
module wrap (input [7:0] a, output [7:0] y);
  adder #(.STEP(5)) u (.a(a), .y(y));
endmodule`
	s := newSim(t, src, "wrap")
	mustPoke(t, s, "a", logic.FromUint64(8, 10))
	if got := peekU(t, s, "y"); got != 15 {
		t.Errorf("y = %d", got)
	}
	// And elaborating the child directly uses the default.
	s2 := newSim(t, src, "adder")
	mustPoke(t, s2, "a", logic.FromUint64(8, 10))
	if got := peekU(t, s2, "y"); got != 11 {
		t.Errorf("default y = %d", got)
	}
}

func TestElabErrors(t *testing.T) {
	bad := []struct{ src, top string }{
		{`module m (input a, output y); assign y = nothere; endmodule`, "m"},
		{`module m (input a, output y); assign y = a; endmodule`, "missing"},
		{`module m (input a, output y); sub u (.x(a)); endmodule`, "m"},
		{`module m (input [3:0] a, output y); assign y = a[9:2]; endmodule`, "m"},
	}
	for _, c := range bad {
		ast, err := hdl.Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if _, err := elab.Elaborate(ast, c.top, nil); err == nil {
			t.Errorf("expected elaboration error for %q", c.src)
		}
	}
}

func TestConcatTarget(t *testing.T) {
	src := `
module split (input [7:0] d, output [3:0] hi, output [3:0] lo);
  always_comb begin
    {hi, lo} = d;
  end
endmodule`
	s := newSim(t, src, "split")
	mustPoke(t, s, "d", logic.FromUint64(8, 0xA5))
	if peekU(t, s, "hi") != 0xA || peekU(t, s, "lo") != 0x5 {
		t.Errorf("hi=%x lo=%x", peekU(t, s, "hi"), peekU(t, s, "lo"))
	}
}

const multiClockSrc = `
module mc (input clk_a, input clk_b, input rst_ni,
           output reg [3:0] ca, output reg [3:0] cb);
  always_ff @(posedge clk_a or negedge rst_ni) begin
    if (!rst_ni) ca <= 4'd0;
    else ca <= ca + 4'd1;
  end
  always_ff @(posedge clk_b or negedge rst_ni) begin
    if (!rst_ni) cb <= 4'd0;
    else cb <= cb + 4'd1;
  end
endmodule`

func TestMultipleClockDomains(t *testing.T) {
	s := newSim(t, multiClockSrc, "mc")
	clkA := s.SignalIndex("clk_a")
	clkB := s.SignalIndex("clk_b")
	mustPoke(t, s, "rst_ni", logic.Zero(1))
	mustPoke(t, s, "rst_ni", logic.Ones(1))
	mustPoke(t, s, "clk_a", logic.Zero(1))
	mustPoke(t, s, "clk_b", logic.Zero(1))
	for i := 0; i < 6; i++ {
		_ = s.Tick(clkA)
	}
	for i := 0; i < 2; i++ {
		_ = s.Tick(clkB)
	}
	if got := peekU(t, s, "ca"); got != 6 {
		t.Errorf("ca = %d", got)
	}
	if got := peekU(t, s, "cb"); got != 2 {
		t.Errorf("cb = %d (domains must be independent)", got)
	}
}

func TestClockTreeAliasResolution(t *testing.T) {
	// Child clocks resolve through the connection chain to the root.
	src := `
module leaf (input clk_i, input rst_ni, output reg [3:0] q);
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 4'd0;
    else q <= q + 4'd1;
  end
endmodule
module root (input clk_i, input rst_ni, output [3:0] a, output [3:0] b);
  leaf u0 (.clk_i(clk_i), .rst_ni(rst_ni), .q(a));
  leaf u1 (.clk_i(clk_i), .rst_ni(rst_ni), .q(b));
endmodule`
	s := newSim(t, src, "root")
	info := DetectClockReset(s.Design())
	if s.Design().Signals[info.Clock].Name != "clk_i" {
		t.Fatalf("clock resolved to %s", s.Design().Signals[info.Clock].Name)
	}
	if s.Design().Signals[info.Reset].Name != "rst_ni" {
		t.Fatalf("reset resolved to %s", s.Design().Signals[info.Reset].Name)
	}
	if err := s.ApplyReset(info, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = s.Tick(info.Clock)
	}
	// Both leaves tick from the single root clock.
	if peekU(t, s, "a") != 3 || peekU(t, s, "b") != 3 {
		t.Errorf("a=%d b=%d, want 3/3", peekU(t, s, "a"), peekU(t, s, "b"))
	}
}

// TestDetectClockResetTiesDeterministic pins tie-breaking: two clocks
// and two active-low resets that each drive one process tie on every
// count, and the detection must pick the lowest signal index every
// time, with the reset tree in ascending order.
func TestDetectClockResetTiesDeterministic(t *testing.T) {
	src := `
module tie (input clk_a, input clk_b, input rst_a_ni, input rst_b_ni,
            output reg ca, output reg cb);
  always_ff @(posedge clk_a or negedge rst_a_ni) begin
    if (!rst_a_ni) ca <= 1'b0;
    else ca <= ~ca;
  end
  always_ff @(posedge clk_b or negedge rst_b_ni) begin
    if (!rst_b_ni) cb <= 1'b0;
    else cb <= ~cb;
  end
endmodule`
	d := elaborate(t, src, "tie")
	idx := func(name string) int { return d.ByName[name].Index }
	want := ResetInfo{Clock: idx("clk_a"), Reset: idx("rst_a_ni"), ActiveLow: true,
		Tree: []int{idx("clk_a"), idx("clk_b"), idx("rst_a_ni"), idx("rst_b_ni")}}
	slices.Sort(want.Tree)
	for i := 0; i < 200; i++ {
		got := DetectClockReset(d)
		if got.Clock != want.Clock || got.Reset != want.Reset || got.ActiveLow != want.ActiveLow ||
			!slices.Equal(got.Tree, want.Tree) {
			t.Fatalf("call %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestPokePeekErrors(t *testing.T) {
	s := newSim(t, counterSrc, "counter")
	if err := s.Poke("missing", logic.Zero(1)); err == nil {
		t.Error("poke of unknown signal must error")
	}
	if _, err := s.Peek("missing"); err == nil {
		t.Error("peek of unknown signal must error")
	}
	if s.SignalIndex("missing") != -1 {
		t.Error("unknown index must be -1")
	}
}

func TestAdvanceCycleFiresListeners(t *testing.T) {
	s := newSim(t, combSrc, "comb")
	n := 0
	s.OnCycle(func(DUV) { n++ })
	s.AdvanceCycle()
	s.AdvanceCycle()
	if n != 2 || s.Cycle() != 2 {
		t.Errorf("n=%d cycle=%d", n, s.Cycle())
	}
}

func TestGetMemOutOfRange(t *testing.T) {
	s := newSim(t, memSrc, "regfile")
	if v := s.GetMem(0, 9999); !v.HasUnknown() {
		t.Error("out-of-range memory read must be X")
	}
}

func TestResizeOnApply(t *testing.T) {
	// Writing a wrong-width value through Set resizes to the signal.
	s := newSim(t, combSrc, "comb")
	idx := s.SignalIndex("a")
	s.Set(idx, logic.FromUint64(16, 0x1FF))
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := peekU(t, s, "a"); got != 0xFF {
		t.Errorf("a = %#x, want truncated 0xFF", got)
	}
}

// --- four-state truth tables ---------------------------------------
//
// These pin the 0/1/X/Z propagation rules for the core operators as
// observed through the simulator, edge by edge. The compiled backend
// (internal/simc) reimplements every one of these kernels on packed
// word planes, so any drift in the tables here is exactly the kind of
// bug the differential harness must catch — keeping the interpreter's
// behaviour pinned makes the reference itself trustworthy.

const gatesSrc = `
module gates (input a, input b, input sel,
              output and_o, output or_o, output xor_o,
              output mux_o, output eq_o, output lt_o);
  assign and_o = a & b;
  assign or_o = a | b;
  assign xor_o = a ^ b;
  assign mux_o = sel ? a : b;
  assign eq_o = a == b;
  assign lt_o = a < b;
endmodule`

// bit4 maps a table character to a 1-bit four-state value.
func bit4(t *testing.T, c byte) logic.BV {
	t.Helper()
	switch c {
	case '0':
		return logic.Zero(1)
	case '1':
		return logic.Ones(1)
	case 'x':
		return logic.X(1)
	case 'z':
		return logic.Z(1)
	}
	t.Fatalf("bad table bit %q", c)
	return logic.BV{}
}

func TestFourStateTruthTables(t *testing.T) {
	s := newSim(t, gatesSrc, "gates")
	const states = "01xz"
	// Rows are indexed [a][b] in state order 0,1,x,z. A Z input to a
	// gate behaves as unknown: it can never dominate, so it
	// contaminates exactly like X. 0 dominates AND, 1 dominates OR,
	// XOR and the comparisons contaminate on any unknown operand.
	tables := []struct {
		out  string
		want [4]string
	}{
		{"and_o", [4]string{"0000", "01xx", "0xxx", "0xxx"}},
		{"or_o", [4]string{"01xx", "1111", "x1xx", "x1xx"}},
		{"xor_o", [4]string{"01xx", "10xx", "xxxx", "xxxx"}},
		{"eq_o", [4]string{"10xx", "01xx", "xxxx", "xxxx"}},
		{"lt_o", [4]string{"01xx", "00xx", "xxxx", "xxxx"}},
	}
	for ai := 0; ai < len(states); ai++ {
		for bi := 0; bi < len(states); bi++ {
			ac, bc := states[ai], states[bi]
			mustPoke(t, s, "a", bit4(t, ac))
			mustPoke(t, s, "b", bit4(t, bc))
			for _, tb := range tables {
				got, err := s.Peek(tb.out)
				if err != nil {
					t.Fatal(err)
				}
				want := bit4(t, tb.want[ai][bi])
				if !got.Eq4(want) {
					t.Errorf("%s(a=%c, b=%c) = %s, want %s", tb.out, ac, bc, got, want)
				}
			}
		}
	}
}

func TestFourStateMuxTable(t *testing.T) {
	s := newSim(t, gatesSrc, "gates")
	const states = "01xz"
	for si := 0; si < len(states); si++ {
		for ai := 0; ai < len(states); ai++ {
			for bi := 0; bi < len(states); bi++ {
				sc, ac, bc := states[si], states[ai], states[bi]
				mustPoke(t, s, "sel", bit4(t, sc))
				mustPoke(t, s, "a", bit4(t, ac))
				mustPoke(t, s, "b", bit4(t, bc))
				var want logic.BV
				switch sc {
				case '1':
					// A known select passes the branch through
					// verbatim — including Z.
					want = bit4(t, ac)
				case '0':
					want = bit4(t, bc)
				default:
					// Unknown select merges the branches: a bit
					// survives only when both sides agree on a known
					// value; disagreeing or Z/X bits collapse to X.
					if ac == bc && (ac == '0' || ac == '1') {
						want = bit4(t, ac)
					} else {
						want = logic.X(1)
					}
				}
				got, err := s.Peek("mux_o")
				if err != nil {
					t.Fatal(err)
				}
				if !got.Eq4(want) {
					t.Errorf("mux(sel=%c, a=%c, b=%c) = %s, want %s", sc, ac, bc, got, want)
				}
			}
		}
	}
}

const wideSrc = `
module wide (input clk_i, input rst_ni, input [7:0] d, output reg [99:0] acc, output reg [2:0] cnt);
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) cnt <= 3'd0;
    else begin
      acc <= {acc[91:0], d};
      cnt <= cnt + 3'd1;
    end
  end
endmodule`

// TestWordsMatchGet pins DUV.Words against Get: the same planes, word
// for word, through X power-on state, clocked updates of a multi-word
// register and a snapshot restore.
func TestWordsMatchGet(t *testing.T) {
	s := newSim(t, wideSrc, "wide")
	check := func(when string) {
		t.Helper()
		for i := range s.Design().Signals {
			ga, gb := s.Get(i).Words()
			wa, wb := s.Words(i)
			if !slices.Equal(ga, wa) || !slices.Equal(gb, wb) {
				t.Fatalf("%s: signal %d: Words=(%x,%x) Get=(%x,%x)", when, i, wa, wb, ga, gb)
			}
		}
	}
	check("power-on")
	info := DetectClockReset(s.Design())
	if err := s.ApplyReset(info, 1); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	for c := uint64(0); c < 20; c++ {
		mustPoke(t, s, "d", logic.FromUint64(8, 0xa5^c))
		if err := s.Tick(info.Clock); err != nil {
			t.Fatal(err)
		}
		check("tick")
	}
	s.Restore(snap)
	check("restore")
}
