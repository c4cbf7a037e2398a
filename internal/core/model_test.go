package core

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/designs"
	"repro/internal/logic"
)

// reportJSON zeroes a report's wall-clock fields, as
// runCampaignJSON does, and returns it as JSON.
func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	rep.Timings.TotalNS = 0
	rep.Timings.FuzzNS = 0
	rep.Timings.SymbolicNS = 0
	rep.Timings.RollbackNS = 0
	rep.Timings.VCDNS = 0
	rep.Timings.Solve.BlastNS = 0
	rep.Timings.Solve.CDCLNS = 0
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSharedModelMatchesNew runs four engines concurrently on one
// prepared model, each with its own seed and backend, and requires each
// report to be byte-identical to the one an engine built by New (own
// design, own static build) produces with the same Config. Under -race
// this also proves that nothing writes to the model, its partition or
// its design once they are built. opentitan_mini at I=40/Th=2 exercises
// guidance and slicing; bus_arb exercises pruning.
func TestSharedModelMatchesNew(t *testing.T) {
	for _, tc := range []struct {
		bench   string
		vectors uint64
	}{
		{"opentitan_mini", 4500},
		{"bus_arb", 4000},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			b, ok := designs.FindBenchmark(tc.bench)
			if !ok {
				t.Fatalf("no builtin benchmark %q", tc.bench)
			}
			configs := make([]Config, 4)
			for i := range configs {
				configs[i] = Config{
					Interval: 40, Threshold: 2, MaxVectors: tc.vectors,
					Seed: int64(11 + i), UseSnapshots: true,
					SimBackend: []string{"compiled", "interp"}[i%2],
				}
			}

			want := make([][]byte, len(configs))
			for i, c := range configs {
				eng, err := New(benchmarkDesign(t, tc.bench), b.Properties, c)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case tc.bench == "opentitan_mini" && (rep.SolvedPlans == 0 || rep.SlicedVars == 0):
					t.Fatalf("seed %d: guidance or slicing never fired: %s", c.Seed, rep)
				case tc.bench == "bus_arb" && (rep.PrunedTargets == 0 || rep.PrunedSolves == 0):
					t.Fatalf("seed %d: pruning never fired: %s", c.Seed, rep)
				}
				want[i] = reportJSON(t, rep)
			}

			m, err := Prepare(benchmarkDesign(t, tc.bench), configs[0])
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]byte, len(configs))
			errs := make([]error, len(configs))
			var wg sync.WaitGroup
			for i, c := range configs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					eng, err := NewFromModel(m, b.Properties, c)
					if err != nil {
						errs[i] = err
						return
					}
					rep, err := eng.Run()
					if err != nil {
						errs[i] = err
						return
					}
					got[i] = reportJSON(t, rep)
				}()
			}
			wg.Wait()
			for i := range configs {
				if errs[i] != nil {
					t.Fatalf("engine %d: %v", i, errs[i])
				}
				if string(got[i]) != string(want[i]) {
					t.Errorf("engine %d (seed %d, %s) on the shared model differs from New\nshared: %s\nnew:    %s",
						i, configs[i].Seed, configs[i].SimBackend, got[i], want[i])
				}
			}
		})
	}
}

// TestNewFromModelRejectsMismatchedConfig: an engine must ask for the
// static settings its model was prepared with; the backend is free.
func TestNewFromModelRejectsMismatchedConfig(t *testing.T) {
	base := Config{CFG: cfg.Options{MaxNodes: 64}}
	m, err := Prepare(benchmarkDesign(t, "bus_arb"), base)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"MaxNodes":       func(c *Config) { c.CFG.MaxNodes = 32 },
		"MaxSuccessors":  func(c *Config) { c.CFG.MaxSuccessors = 4 },
		"Pin":            func(c *Config) { c.CFG.Pin = map[string]logic.BV{"req": logic.Zero(4)} },
		"ResetCycles":    func(c *Config) { c.ResetCycles = 5 },
		"DisablePruning": func(c *Config) { c.DisablePruning = true },
	} {
		c := base
		mutate(&c)
		if _, err := NewFromModel(m, nil, c); err == nil {
			t.Errorf("%s: NewFromModel accepted a config the model was not prepared with", name)
		}
	}
	c := base
	c.SimBackend = "compiled"
	c.ResetCycles = 2 // the default, spelled out
	if _, err := NewFromModel(m, nil, c); err != nil {
		t.Errorf("matching config rejected: %v", err)
	}
}

// TestNewLeavesCallerPinMap: construction pins the reset input in a map
// of its own and never writes into the caller's Config.CFG.Pin.
func TestNewLeavesCallerPinMap(t *testing.T) {
	pin := map[string]logic.BV{}
	c := Config{MaxVectors: 10, CFG: cfg.Options{Pin: pin}}
	if _, err := New(benchmarkDesign(t, "bus_arb"), nil, c); err != nil {
		t.Fatal(err)
	}
	if len(pin) != 0 {
		t.Fatalf("New wrote %v into the caller's pin map", pin)
	}
}
