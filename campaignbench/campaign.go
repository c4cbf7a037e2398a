package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/designs"
	"repro/internal/prof"
)

// profileHz is the CPU-profile sampling rate of traced campaigns: five
// times pprof's default, so a layer of 1% gets tens of samples.
const profileHz = 500

// campaign is one finished SymbFuzz campaign and what was measured
// around it.
type campaign struct {
	seed    int64
	backend string
	traced  bool
	report  *core.Report
	digest  string

	setupS float64 // Elaborate + core.New
	wallS  float64 // RunContext
	cpuS   float64 // process user+sys CPU during RunContext

	allocs, allocBytes uint64
	heapPeak           uint64 // max /gc/heap/live:bytes at interval boundaries

	// targetS is the wall time from the start of RunContext to the
	// first interval boundary at or above the workload's target;
	// targetVectors is read from Report.Curve. Both are 0 when missed.
	targetS       float64
	targetVectors uint64

	// Filled only for traced campaigns.
	profile []cpuSample
	evals   uint64
}

// runCampaign elaborates opentitan_mini, builds the engine and runs one
// campaign on the given backend. A traced campaign runs under the CPU
// profiler and records a cost ledger.
func runCampaign(ctx context.Context, w workload, seed int64, backend string, traced bool) (*campaign, error) {
	b := designs.OpenTitanMini(nil)
	c := &campaign{seed: seed, backend: backend, traced: traced}
	var runStart time.Time
	liveHeap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	cfg := core.Config{
		Interval:              w.interval,
		Threshold:             w.threshold,
		MaxVectors:            w.vectors,
		Seed:                  seed,
		SimBackend:            backend,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
		// Sync observes the campaign at every interval boundary and
		// never stops it.
		Sync: func(cv *cov.CFGCov, _ *core.Report) bool {
			if c.targetS == 0 && cv.Points() >= w.target {
				c.targetS = time.Since(runStart).Seconds()
			}
			metrics.Read(liveHeap)
			if v := liveHeap[0].Value.Uint64(); v > c.heapPeak {
				c.heapPeak = v
			}
			return false
		},
	}
	if traced {
		cfg.Prof = prof.New(prof.Options{})
	}

	runtime.GC()
	t0 := time.Now()
	d, err := b.Elaborate()
	if err != nil {
		return nil, err
	}
	eng, err := core.New(d, b.Properties, cfg)
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	c.setupS = time.Since(t0).Seconds()

	var profBuf bytes.Buffer
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	if traced {
		// StartCPUProfile asks for its default rate and warns on
		// stderr that the rate set here is already in force.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&profBuf); err != nil {
			return nil, err
		}
	}
	runStart = time.Now()
	rep, err := eng.RunContext(ctx)
	c.wallS = time.Since(runStart).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	c.cpuS = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	if rep.Interrupted || rep.Vectors != w.vectors {
		return nil, fmt.Errorf("campaign stopped after %d of %d vectors", rep.Vectors, w.vectors)
	}
	c.report = rep
	c.allocs = m1.Mallocs - m0.Mallocs
	c.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	for _, p := range rep.Curve {
		if p.Points >= w.target {
			c.targetVectors = p.Vectors
			break
		}
	}
	if c.digest, err = reportDigest(rep); err != nil {
		return nil, err
	}
	if traced {
		if c.profile, err = parseCPUProfile(profBuf.Bytes()); err != nil {
			return nil, err
		}
		for _, e := range cfg.Prof.Ledger().Sim {
			c.evals += e.Evals
		}
	}
	return c, nil
}

// processCPU is the process's user+sys CPU time in seconds.
// Getrusage(RUSAGE_SELF) fails only for a bad pointer, so its error is
// dropped.
func processCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// reportDigest hashes a report with its wall-clock fields zeroed. Every
// other field is a function of the design, the configuration and the
// seed, so equal digests mean byte-identical reports.
func reportDigest(r *core.Report) (string, error) {
	z := *r
	z.Timings.TotalNS = 0
	z.Timings.FuzzNS = 0
	z.Timings.SymbolicNS = 0
	z.Timings.RollbackNS = 0
	z.Timings.VCDNS = 0
	z.Timings.Solve.BlastNS = 0
	z.Timings.Solve.CDCLNS = 0
	data, err := json.Marshal(&z)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12]), nil
}
