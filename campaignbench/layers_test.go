package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestLayerMapSymbolsInBinary builds the benchmark and runs the
// traced run's layer-map check on it.
func TestLayerMapSymbolsInBinary(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads the ELF symbol table")
	}
	bin := filepath.Join(t.TempDir(), "campaignbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if err := checkLayerMap(bin); err != nil {
		t.Error(err)
	}
}

func TestAttributeInnermostEntryPoint(t *testing.T) {
	stack := []string{
		"repro/internal/logic.BV.BitString",
		"repro/internal/simc.(*Machine).Get",
		"repro/internal/cov.(*CFGCov).Sample",
		"repro/internal/simc.(*Machine).Tick",
		"repro/internal/core.(*Engine).RunContext",
		"main.main",
	}
	if got := attribute(stack); got != "sim.get_us" {
		t.Errorf("attribute = %s, want sim.get_us", got)
	}
	if got := attribute(stack[2:]); got != "cov.sample_us" {
		t.Errorf("attribute = %s, want cov.sample_us", got)
	}
	if got := attribute([]string{"runtime.bgsweep", "runtime.goexit"}); got != otherLayer {
		t.Errorf("attribute = %s, want %s", got, otherLayer)
	}
	layers := cpuLayers()
	if layers[len(layers)-1] != otherLayer {
		t.Errorf("cpuLayers does not end with %s: %v", otherLayer, layers)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.ns
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("%d samples, %d of %d CPU ns in spin; want most of it", len(samples), inSpin, total)
	}
}
