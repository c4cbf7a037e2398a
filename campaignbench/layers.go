package main

import (
	"bytes"
	"debug/elf"
	"fmt"
	"sort"
	"strings"
)

// layerMap charges a CPU-profile sample to the innermost listed public
// entry point on its stack. Keys are function names exactly as the Go
// toolchain prints them; checkLayerMap asserts that each one exists in
// the benchmark binary, at the start of every traced run and in
// layers_test.go, so a rename fails the run instead of silently moving
// time into core.engine_us or other_us. Peek, the
// by-name read, is not listed: no campaign path calls it, so the linker
// drops it.
var layerMap = map[string]string{
	"repro/internal/cov.(*CFGCov).Sample": "cov.sample_us",
	"repro/internal/cov.(*CFGCov).Branch": "cov.sample_us",

	"repro/internal/sim.(*Simulator).Get":    "sim.get_us",
	"repro/internal/sim.(*Simulator).GetMem": "sim.get_us",
	"repro/internal/simc.(*Machine).Get":     "sim.get_us",
	"repro/internal/simc.(*Machine).GetMem":  "sim.get_us",

	"repro/internal/sim.(*Simulator).Settle":       "sim.step_us",
	"repro/internal/sim.(*Simulator).Tick":         "sim.step_us",
	"repro/internal/sim.(*Simulator).Set":          "sim.step_us",
	"repro/internal/sim.(*Simulator).AdvanceCycle": "sim.step_us",
	"repro/internal/simc.(*Machine).Settle":        "sim.step_us",
	"repro/internal/simc.(*Machine).Tick":          "sim.step_us",
	"repro/internal/simc.(*Machine).Set":           "sim.step_us",
	"repro/internal/simc.(*Machine).AdvanceCycle":  "sim.step_us",

	"repro/internal/sim.(*Simulator).Snapshot": "sim.snapshot_us",
	"repro/internal/simc.(*Machine).Snapshot":  "sim.snapshot_us",
	"repro/internal/sim.(*Simulator).Restore":  "sim.restore_us",
	"repro/internal/simc.(*Machine).Restore":   "sim.restore_us",

	"repro/internal/props.(*Checker).Sample": "props.check_us",

	"repro/internal/uvm.(*Sequencer).NextItem": "uvm.stimulus_us",
	"repro/internal/uvm.(*Driver).Apply":       "uvm.apply_us",

	"repro/internal/cfg.(*Graph).UncoveredFrom":   "cfg.uncovered_us",
	"repro/internal/cfg.(*Graph).SolveStepSliced": "cfg.slice_us",
	"repro/internal/cfg.(*Graph).SolveStepStats":  "cfg.slice_us",

	"repro/internal/smt.(*Solver).Assert": "smt.blast_us",
	"repro/internal/smt.(*Solver).Var":    "smt.blast_us",
	"repro/internal/smt.(*Solver).Solve":  "smt.sat_us",

	"repro/internal/core.(*Engine).RunContext": "core.engine_us",

	// GC background mark workers, and GC work the profiler could not
	// unwind (pprof's runtime._GC pseudo-frame).
	"runtime.gcBgMarkWorker": "runtime.gc_us",
	"runtime._GC":            "runtime.gc_us",
}

// otherLayer collects samples under no listed entry point.
const otherLayer = "other_us"

// maxOtherShare is the share of CPU samples other_us may take before a
// traced run fails: above it, the layer map no longer explains where a
// campaign's time goes.
const maxOtherShare = 0.05

// cpuLayers lists every self-CPU layer in print order.
func cpuLayers() []string {
	seen := map[string]bool{otherLayer: true}
	var out []string
	for _, l := range layerMap {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return append(out, otherLayer)
}

// checkLayerMap returns an error naming every layer-map entry point
// that is not a function of the ELF binary at path. A function inlined
// at every call site has no symbol of its own but keeps its name in the
// PC-line table, which is where the profiler finds it.
func checkLayerMap(path string) error {
	f, err := elf.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		return err
	}
	have := map[string]bool{}
	for _, s := range syms {
		have[s.Name] = true
	}
	sec := f.Section(".gopclntab")
	if sec == nil {
		return fmt.Errorf("%s has no .gopclntab section", path)
	}
	pclntab, err := sec.Data()
	if err != nil {
		return err
	}
	var missing []string
	for fn, l := range layerMap {
		inlined := bytes.Contains(pclntab, []byte("\x00"+fn+"\x00"))
		if !pseudoFrame(fn) && !have[fn] && !inlined {
			missing = append(missing, fmt.Sprintf("%s (%s)", fn, l))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("layer map entries missing from the benchmark binary: %s", strings.Join(missing, ", "))
	}
	return nil
}

// pseudoFrame reports whether a layer-map key names a pprof pseudo
// frame rather than a function the binary holds.
func pseudoFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime._")
}

// attribute returns the layer of one sample's stack (innermost first).
func attribute(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerMap[fn]; ok {
			return l
		}
	}
	return otherLayer
}
