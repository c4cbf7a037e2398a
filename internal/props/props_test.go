package props

import (
	"fmt"
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/simc"
)

func newSim(t *testing.T, src, top string) *sim.Simulator {
	t.Helper()
	ast, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeCtx for pure expression tests.
type fakeCtx struct {
	vals map[string]logic.BV
	past map[string][]logic.BV
}

func (f *fakeCtx) Val(name string) logic.BV { return f.vals[name] }
func (f *fakeCtx) PastVal(name string, n int) logic.BV {
	h := f.past[name]
	if n-1 < len(h) {
		return h[n-1]
	}
	return logic.X(1)
}
func (f *fakeCtx) Cycle() uint64 { return 7 }

func TestExprBasics(t *testing.T) {
	c := &fakeCtx{vals: map[string]logic.BV{
		"a": logic.FromUint64(4, 5),
		"b": logic.FromUint64(4, 3),
		"x": logic.X(4),
	}}
	cases := []struct {
		name string
		e    Expr
		want logic.Bit
	}{
		{"eq-false", Eq(Sig("a"), Sig("b")), logic.L0},
		{"eq-true", Eq(Sig("a"), U(4, 5)), logic.L1},
		{"ne", Ne(Sig("a"), Sig("b")), logic.L1},
		{"lt", Lt(Sig("b"), Sig("a")), logic.L1},
		{"le", Le(Sig("a"), Sig("a")), logic.L1},
		{"and", And(B(true), B(false)), logic.L0},
		{"or", Or(B(true), B(false)), logic.L1},
		{"not", Not(B(true)), logic.L0},
		{"isunknown-yes", IsUnknown(Sig("x")), logic.L1},
		{"isunknown-no", IsUnknown(Sig("a")), logic.L0},
		{"redor", RedOr(Sig("a")), logic.L1},
		{"slice", Eq(Slice(Sig("a"), 2, 0), U(3, 5)), logic.L1},
		{"index", Eq(Index(Sig("a"), 0), U(1, 1)), logic.L1},
		{"add", Eq(Add(Sig("a"), Sig("b")), U(4, 8)), logic.L1},
		{"sub", Eq(Sub(Sig("a"), Sig("b")), U(4, 2)), logic.L1},
		{"bxor", Eq(BXor(Sig("a"), Sig("b")), U(4, 6)), logic.L1},
		{"isinside-yes", IsInside(Sig("a"), U(4, 1), U(4, 5)), logic.L1},
		{"isinside-no", IsInside(Sig("a"), U(4, 1), U(4, 2)), logic.L0},
		{"implies-vacuous", Implies(B(false), B(false)), logic.L1},
		{"implies-holds", Implies(B(true), B(true)), logic.L1},
		{"implies-fails", Implies(B(true), B(false)), logic.L0},
		{"implies-x-antecedent", Implies(Sig("x"), B(false)), logic.L1},
	}
	for _, tc := range cases {
		if got := tc.e.Eval(c).Truthy(); got != tc.want {
			t.Errorf("%s: %s = %v, want %v", tc.name, tc.e, got, tc.want)
		}
	}
}

func TestSignalsCollection(t *testing.T) {
	e := Implies(Eq(Sig("a"), Past("b", 3)), Stable("c"))
	set := map[string]int{}
	e.Signals(set)
	if set["b"] != 3 {
		t.Errorf("past depth of b = %d", set["b"])
	}
	if _, ok := set["a"]; !ok {
		t.Error("a missing")
	}
	if set["c"] != 1 {
		t.Errorf("stable depth of c = %d", set["c"])
	}
}

const fsmSrc = `
module fsm (input clk_i, input rst_ni, input go, output reg [1:0] st);
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) st <= 2'd0;
    else begin
      case (st)
        2'd0: if (go) st <= 2'd1;
        2'd1: st <= 2'd2;
        2'd2: st <= 2'd0;
        default: st <= 2'd0;
      endcase
    end
  end
endmodule`

func TestCheckerViolation(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	// Deliberately wrong property: st never reaches 2.
	chk := NewChecker(&Property{
		Name:       "never_two",
		Expr:       Ne(Sig("st"), U(2, 2)),
		DisableIff: Not(Sig("rst_ni")),
		CWE:        "CWE-TEST",
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	if err := s.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	_ = s.Poke("go", logic.Ones(1))
	for i := 0; i < 5; i++ {
		_ = s.Tick(info.Clock)
	}
	vs := chk.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1 (FirstOnly)", len(vs))
	}
	if vs[0].Property != "never_two" || vs[0].CWE != "CWE-TEST" || vs[0].Cycle == 0 {
		t.Errorf("violation = %+v", vs[0])
	}
}

func TestCheckerHoldingPropertyPasses(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	chk := NewChecker(&Property{
		Name:       "legal_states",
		Expr:       Lt(Sig("st"), U(2, 3)),
		DisableIff: Not(Sig("rst_ni")),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 2)
	_ = s.Poke("go", logic.Ones(1))
	for i := 0; i < 10; i++ {
		_ = s.Tick(info.Clock)
	}
	if len(chk.Violations()) != 0 {
		t.Errorf("unexpected violations: %+v", chk.Violations())
	}
}

func TestPastAndStable(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	// After go, st goes 0 -> 1 -> 2 -> 0; check $past sees the chain:
	// st == 2 |-> $past(st) == 1.
	chk := NewChecker(&Property{
		Name:       "two_after_one",
		Expr:       Implies(Eq(Sig("st"), U(2, 2)), Eq(Past("st", 1), U(2, 1))),
		DisableIff: Not(Sig("rst_ni")),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 2)
	_ = s.Poke("go", logic.Ones(1))
	for i := 0; i < 8; i++ {
		_ = s.Tick(info.Clock)
	}
	if len(chk.Violations()) != 0 {
		t.Errorf("chain property should hold: %+v", chk.Violations())
	}
}

func TestPastBeforeHistoryIsX(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	// A property over $past at cycle 0 must not fire (X antecedent).
	chk := NewChecker(&Property{
		Name: "past_guard",
		Expr: Implies(Eq(Past("st", 4), U(2, 3)), B(false)),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 1)
	_ = s.Tick(info.Clock)
	if len(chk.Violations()) != 0 {
		t.Errorf("X history must not fire properties: %+v", chk.Violations())
	}
}

func TestCheckerReset(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	chk := NewChecker(&Property{
		Name:       "never_one",
		Expr:       Ne(Sig("st"), U(2, 1)),
		DisableIff: Not(Sig("rst_ni")),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 1)
	_ = s.Poke("go", logic.Ones(1))
	for i := 0; i < 3; i++ {
		_ = s.Tick(info.Clock)
	}
	if len(chk.Violations()) != 1 {
		t.Fatalf("expected one violation, got %d", len(chk.Violations()))
	}
	chk.Reset()
	if len(chk.Violations()) != 0 {
		t.Error("reset should clear violations")
	}
	for i := 0; i < 4; i++ {
		_ = s.Tick(info.Clock)
	}
	if len(chk.Violations()) != 1 {
		t.Errorf("property should fire again after reset, got %d", len(chk.Violations()))
	}
}

func TestUnknownSignalNameIsX(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	chk := NewChecker(&Property{
		Name: "missing",
		Expr: Eq(Sig("does_not_exist"), U(1, 1)),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 2)
	if len(chk.Violations()) != 0 {
		t.Error("unknown signal comparisons are X and must not fire")
	}
}

const regsSrc = `
module regs (input clk_i, input [7:0] d,
             output reg [7:0] r0, output reg [7:0] r1, output reg [7:0] r2, output reg [7:0] r3,
             output reg [7:0] r4, output reg [7:0] r5, output reg [7:0] r6, output reg [99:0] r7);
  always_ff @(posedge clk_i) begin
    r0 <= d; r1 <= r0; r2 <= r1; r3 <= r2;
    r4 <= r3; r5 <= r4; r6 <= r5; r7 <= {r7[91:0], r6};
  end
endmodule`

// newCompiled builds regsSrc on the compiled backend, whose Get
// allocates, so history pushed through Get would show in allocations.
func newCompiled(t *testing.T) (*simc.Machine, int) {
	t.Helper()
	ast, err := hdl.Parse(regsSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, "regs", nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := simc.New(d)
	if err != nil {
		t.Fatal(err)
	}
	return m, sim.DetectClockReset(d).Clock
}

// TestCheckerSampleAllocsFlatInSignals pins the word-ring history:
// once every property has fired (FirstOnly skips evaluation), Sample
// only pushes history, and its allocation count must not grow with the
// number of history-tracked signals.
func TestCheckerSampleAllocsFlatInSignals(t *testing.T) {
	allocs := func(k int) float64 {
		m, _ := newCompiled(t)
		chk := NewChecker()
		for i := 0; i < k; i++ {
			name := fmt.Sprintf("r%d", i)
			chk.AddProperty(&Property{Name: name, Expr: And(B(false), Past(name, 3))})
		}
		chk.Bind(m)
		chk.Sample()
		if len(chk.Violations()) != k {
			t.Fatalf("k=%d: %d violations, want every property fired", k, len(chk.Violations()))
		}
		return testing.AllocsPerRun(100, chk.Sample)
	}
	one, eight := allocs(1), allocs(8)
	if eight > one {
		t.Fatalf("Sample allocations grow with tracked signals: %v with 1, %v with 8", one, eight)
	}
}

// TestPastValMatchesRecordedValues checks the word rings against the
// values Get returned on earlier cycles, on both backends, for narrow
// and multi-word signals and through a history reset.
func TestPastValMatchesRecordedValues(t *testing.T) {
	m, clk := newCompiled(t)
	backends := map[string]sim.DUV{"compiled": m, "interp": newSim(t, regsSrc, "regs")}
	for name, s := range backends {
		chk := NewChecker(&Property{Name: "deep", Expr: Eq(Past("r7", 4), Past("r1", 2))})
		chk.Bind(s)
		r1, r7 := s.SignalIndex("r1"), s.SignalIndex("r7")
		var got1, got7 []logic.BV
		for c := uint64(0); c < 12; c++ {
			if c == 6 {
				chk.ResetHistory()
				got1, got7 = nil, nil
			}
			s.Set(s.SignalIndex("d"), logic.FromUint64(8, 0x3c+c))
			if err := s.Tick(clk); err != nil {
				t.Fatal(err)
			}
			got1 = append(got1, s.Get(r1))
			got7 = append(got7, s.Get(r7))
			for n := 1; n <= 6; n++ {
				want1, want7 := logic.X(1), logic.X(1)
				if n <= 5 && n <= len(got1) { // rings are 5 deep for $past(r7,4)
					want1, want7 = got1[len(got1)-n], got7[len(got7)-n]
				}
				if v := chk.PastVal("r1", n); !v.Eq4(want1) {
					t.Fatalf("%s cycle %d: $past(r1,%d) = %s, want %s", name, c, n, v, want1)
				}
				if v := chk.PastVal("r7", n); !v.Eq4(want7) {
					t.Fatalf("%s cycle %d: $past(r7,%d) = %s, want %s", name, c, n, v, want7)
				}
			}
		}
	}
}
