package sim_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/simc"
)

// maxFuzzSource bounds the RTL text FuzzElab accepts; every builtin
// benchmark fits.
const maxFuzzSource = 1 << 16

// FuzzElab drives arbitrary RTL text down the path a user's -src file
// takes: parse, elaborate the last module as top, build the compiled
// simulator (the default backend) and the reference interpreter,
// detect clock and reset, and apply the reset sequence on each.
// Every stage must return an error or succeed — never panic, hang or
// exhaust memory. The seed corpus is every builtin benchmark plus a
// few shapes that stress the elaborator's bounds.
func FuzzElab(f *testing.F) {
	for _, b := range designs.AllBenchmarks() {
		if len(b.Source) <= maxFuzzSource {
			f.Add(b.Source)
		}
	}
	f.Add("module m (input clk_i, input rst_ni, output reg [3:0] q);\n" +
		"  always_ff @(posedge clk_i or negedge rst_ni)\n" +
		"    if (!rst_ni) q <= 4'd0; else q <= q + 4'd1;\nendmodule")
	f.Add("module m (input a, output b); assign b = ~b ^ a; endmodule")
	f.Add("module m; logic [7:0] mem [0:15]; endmodule")
	f.Add("module c (input x, output y); assign y = x; endmodule\n" +
		"module m (input a, output b); c u (.x(a), .y(b)); endmodule")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzSource {
			return
		}
		ast, err := hdl.Parse(src)
		if err != nil || len(ast.Modules) == 0 {
			return
		}
		d, err := elab.Elaborate(ast, ast.Modules[len(ast.Modules)-1].Name, nil)
		if err != nil {
			return
		}
		info := sim.DetectClockReset(d)
		if s, err := simc.New(d); err == nil {
			_ = s.ApplyReset(info, 2)
		}
		if s, err := sim.New(d); err == nil {
			_ = s.ApplyReset(info, 2)
		}
	})
}
