package simc

import (
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/logic"
	"repro/internal/sim"
)

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

// TestWordsMatchGet pins Machine.Words against Get: the arena planes
// equal the rebuilt vector's planes word for word, through X power-on
// state, clocked updates of a multi-word register and a restore.
func TestWordsMatchGet(t *testing.T) {
	ast, err := hdl.Parse(wideSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, "wide", nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for i := range d.Signals {
			ga, gb := m.Get(i).Words()
			wa, wb := m.Words(i)
			if !slices.Equal(ga, wa) || !slices.Equal(gb, wb) {
				t.Fatalf("%s: signal %d: Words=(%x,%x) Get=(%x,%x)", when, i, wa, wb, ga, gb)
			}
		}
	}
	check("power-on")
	info := sim.DetectClockReset(d)
	if err := m.ApplyReset(info, 1); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	in := m.SignalIndex("d")
	for c := uint64(0); c < 20; c++ {
		m.Set(in, logic.FromUint64(8, 0xa5^c))
		if err := m.Tick(info.Clock); err != nil {
			t.Fatal(err)
		}
		check("tick")
	}
	m.Restore(snap)
	check("restore")
}
