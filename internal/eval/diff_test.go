package eval

import (
	"strings"
	"testing"

	"repro/internal/designs"
)

// TestDifferentialSweepSelfConsistent is the differential harness of
// the test satellite: every builtin design runs side-by-side against a
// second elaboration of itself under identical randomized stimulus,
// comparing output ports AND every architectural register by name. Any
// divergence means the simulator or elaborator is nondeterministic —
// the property the whole replay/rollback machinery depends on.
func TestDifferentialSweepSelfConsistent(t *testing.T) {
	// Budgets scale with design size: the SoC and the processor cores
	// simulate an order of magnitude more processes per cycle.
	budget := func(name string) uint64 {
		switch {
		case name == "opentitan_mini":
			return 400
		case strings.HasSuffix(name, "_mini"):
			return 800
		default:
			return 2500
		}
	}
	for _, b := range designs.AllBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			dut, _ := designs.Lookup(b.Name, true)
			res, err := RunGRMOpts(dut, b, budget(b.Name), 17, GRMOptions{CompareRegisters: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Mismatches) != 0 {
				m := res.Mismatches[0]
				t.Fatalf("self-differential divergence on %s at cycle %d: %s vs %s (first at vector %d)",
					m.Signal, m.Cycle, m.Got.BitString(), m.Want.BitString(), res.FirstAt)
			}
			if res.Vectors != budget(b.Name) {
				t.Errorf("ran %d vectors, want %d", res.Vectors, budget(b.Name))
			}
		})
	}
}

// TestDifferentialSweepBuggyIPs promotes examples/grmdiff into the test
// suite: each IP's buggy variant runs against its fixed golden model
// with register-level comparison. IPs whose planted bug corrupts
// architectural state under unguided random stimulus must be flagged;
// the deep-trigger IPs (complete serial frames, sustained key combos)
// are known escapes for random stimulus and are exempted — closing that
// gap is what the symbolic guidance is for.
func TestDifferentialSweepBuggyIPs(t *testing.T) {
	// Observed stable detections at this budget/seed; kept minimal so
	// the test pins real signal, not luck.
	mustDetect := map[string]bool{
		"scmi_mailbox": true, // B01: wr_err never raised
		"pwr_mgr":      true, // B09/B10: premature clear, skipped ROM check
	}
	for _, ip := range designs.AllIPs() {
		ip := ip
		t.Run(ip.Name, func(t *testing.T) {
			t.Parallel()
			dut := designs.IPBenchmark(ip, true)
			golden := designs.IPBenchmark(ip, false)
			res, err := RunGRMOpts(dut, golden, 4000, 11, GRMOptions{CompareRegisters: true})
			if err != nil {
				t.Fatal(err)
			}
			if mustDetect[ip.Name] && len(res.Mismatches) == 0 {
				t.Errorf("%s: buggy variant produced no register/output divergence", ip.Name)
			}
			for _, m := range res.Mismatches {
				if m.Got.Eq4(m.Want) {
					t.Fatalf("mismatch recorded with equal values on %s", m.Signal)
				}
			}
		})
	}
}

// TestRegisterComparisonDeepensDetection pins why the register option
// exists: the power manager's B10 corrupts the FSM state register,
// which the output-only comparison can miss entirely at small budgets
// while the register-level comparison sees it directly.
func TestRegisterComparisonDeepensDetection(t *testing.T) {
	dut := designs.IPBenchmark(designs.PwrMgr(), true)
	golden := designs.IPBenchmark(designs.PwrMgr(), false)
	deep, err := RunGRMOpts(dut, golden, 3000, 5, GRMOptions{CompareRegisters: true})
	if err != nil {
		t.Fatal(err)
	}
	regHit := false
	for _, m := range deep.Mismatches {
		if m.Signal == "state_q" {
			regHit = true
			break
		}
	}
	if !regHit {
		t.Error("register-level comparison did not surface the state_q divergence")
	}
}
