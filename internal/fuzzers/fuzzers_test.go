package fuzzers

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/props"
)

// A DUV with one shallow bug (reachable by anything) and one deep bug
// (behind a two-stage magic comparison).
const duvSrc = `
module duv (input clk_i, input rst_ni, input [7:0] d, output reg [2:0] st,
            output reg [7:0] bus);
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      st <= 3'd0;
      bus <= 8'd0;
    end else begin
      case (st)
        3'd0: begin
          if (d == 8'd7) bus <= 8'hEE; // shallow: wrong bus value
          if (d == 8'hC3) st <= 3'd1;
        end
        3'd1: if (d == 8'h99) st <= 3'd2;
              else st <= 3'd0;
        3'd2: begin
          bus <= 8'hFF; // deep: leak marker
          st <= 3'd0;
        end
        default: st <= 3'd0;
      endcase
    end
  end
endmodule`

func shallowProp() *props.Property {
	return &props.Property{
		Name:       "bus_not_EE",
		Expr:       props.Ne(props.Sig("bus"), props.U(8, 0xEE)),
		DisableIff: props.Not(props.Sig("rst_ni")),
		Tags:       []string{TagArchDiff, TagOutputVisible},
	}
}

func deepProp() *props.Property {
	return &props.Property{
		Name:       "bus_not_FF",
		Expr:       props.Ne(props.Sig("bus"), props.U(8, 0xFF)),
		DisableIff: props.Not(props.Sig("rst_ni")),
		// Leak matches the golden model: only assertion-level and
		// output-visible detection can see it.
		Tags: []string{TagOutputVisible},
	}
}

type fixture struct {
	d *elab.Design
	m *core.Model
	g *cfg.Partition
}

func setup(t *testing.T) *fixture {
	t.Helper()
	ast, err := hdl.Parse(duvSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, "duv", nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Prepare(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{d: d, m: m, g: m.Partition()}
}

func config(f *fixture, budget uint64, seed int64) Config {
	return Config{
		MaxVectors:  budget,
		Seed:        seed,
		CurveStride: 100,
		Graph:       f.g,
		Properties:  []*props.Property{shallowProp(), deepProp()},
	}
}

func TestAllBaselinesRun(t *testing.T) {
	f := setup(t)
	for _, mk := range []func(*elab.Design, Config) Fuzzer{
		NewRFuzz, NewDifuzzRTL, NewHWFP, NewUVMRandom,
	} {
		fz := mk(f.d, config(f, 2000, 1))
		res, err := fz.Run()
		if err != nil {
			t.Fatalf("%s: %v", fz.Name(), err)
		}
		if res.Vectors != 2000 {
			t.Errorf("%s vectors = %d", fz.Name(), res.Vectors)
		}
		if res.FinalPoints == 0 {
			t.Errorf("%s achieved zero reference coverage", fz.Name())
		}
		if len(res.Curve) == 0 {
			t.Errorf("%s recorded no coverage curve", fz.Name())
		}
		// Curves are monotone in both axes.
		for i := 1; i < len(res.Curve); i++ {
			if res.Curve[i].Points < res.Curve[i-1].Points ||
				res.Curve[i].Vectors < res.Curve[i-1].Vectors {
				t.Errorf("%s curve not monotone at %d", fz.Name(), i)
			}
		}
	}
}

func TestDetectionModelFiltering(t *testing.T) {
	f := setup(t)
	// DifuzzRTL (arch-diff) must never report the deep leak even if it
	// stumbles into it: the property is not arch-visible.
	fz := NewDifuzzRTL(f.d, config(f, 3000, 7))
	res, err := fz.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FoundBug("bus_not_FF") {
		t.Error("arch-diff detection must not observe the GRM-invisible leak")
	}
}

func TestShallowBugFoundByAll(t *testing.T) {
	f := setup(t)
	for _, mk := range []func(*elab.Design, Config) Fuzzer{
		NewRFuzz, NewDifuzzRTL, NewHWFP, NewUVMRandom,
	} {
		fz := mk(f.d, config(f, 30_000, 3))
		res, err := fz.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.FoundBug("bus_not_EE") {
			t.Errorf("%s missed the shallow bug", fz.Name())
		}
		if v := res.VectorsFor("bus_not_EE"); v == 0 {
			t.Errorf("%s: zero vector count for found bug", fz.Name())
		}
	}
}

func TestSymbFuzzAdapterFindsDeepBug(t *testing.T) {
	f := setup(t)
	res, err := RunSymbFuzz(f.m, config(f, 30_000, 2), core.Config{
		Interval: 50, Threshold: 2, UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FoundBug("bus_not_FF") {
		t.Errorf("symbfuzz missed the deep bug: %+v", res)
	}
	if !res.FoundBug("bus_not_EE") {
		t.Errorf("symbfuzz missed the shallow bug")
	}
}

func TestGuidedBeatsRandomOnCoverage(t *testing.T) {
	f := setup(t)
	symb, err := RunSymbFuzz(f.m, config(f, 6000, 11), core.Config{
		Interval: 50, Threshold: 2, UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := NewUVMRandom(f.d, config(f, 6000, 11)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if symb.FinalPoints < rnd.FinalPoints {
		t.Errorf("symbfuzz (%d) should not trail uvm-random (%d) on reference coverage",
			symb.FinalPoints, rnd.FinalPoints)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Bugs: []core.BugRecord{{
		Violation: props.Violation{Property: "p"},
		Vectors:   42,
	}}}
	if !r.FoundBug("p") || r.FoundBug("q") {
		t.Error("FoundBug wrong")
	}
	if r.VectorsFor("p") != 42 || r.VectorsFor("q") != 0 {
		t.Error("VectorsFor wrong")
	}
}
