// Package fuzzers re-implements the comparison fuzzers of the paper's
// evaluation (§5.2–§5.3) over the same simulator and UVM substrate, so
// that the only variable is the feedback and detection model:
//
//   - RFuzz       — mux-select coverage, fixed-length input sequences
//     with a full DUV reset between tests, output-visible detection.
//   - DifuzzRTL   — hashed control-register coverage, continuous
//     stimulus, golden-reference (architectural diff) detection.
//   - HWFP        — AFL-style hashed edge coverage over a translated
//     two-state model, per-test reset, golden-reference detection.
//   - UVMRandom   — unguided constrained-random baseline.
//
// Every fuzzer also carries the SymbFuzz reference coverage monitor so
// the evaluation reports all tools on identical coverage points, as the
// paper does ("we used the same coverage points as prior works").
package fuzzers

import (
	"math/rand"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/elab"
	"repro/internal/props"
	"repro/internal/uvm"
)

// Detection tags (see props.Property.Tags).
const (
	// TagArchDiff marks violations visible as architectural output
	// mismatches against a golden reference model.
	TagArchDiff = "arch-diff"
	// TagOutputVisible marks violations that perturb observable
	// outputs even when a golden model would agree (e.g. a key leaking
	// onto the bus, Bug #4).
	TagOutputVisible = "output-visible"
)

// Result mirrors core.Report for baseline fuzzers; coverage points are
// measured on the shared reference metric.
type Result struct {
	Name        string
	Bugs        []core.BugRecord
	Curve       []core.CurvePoint
	FinalPoints int
	OwnPoints   int // the fuzzer's internal feedback metric
	Vectors     uint64
}

// Fuzzer is a runnable baseline.
type Fuzzer interface {
	Name() string
	Run() (*Result, error)
}

// Config parameterizes a baseline run.
type Config struct {
	MaxVectors  uint64
	Seed        int64
	ResetCycles int
	// CurveStride samples the reference-coverage curve every N vectors.
	CurveStride uint64
	// Graph supplies the reference coverage metric; required.
	Graph *cfg.Partition
	// Properties to check; filtered by the fuzzer's detection model.
	Properties []*props.Property
}

func (c Config) withDefaults() Config {
	if c.MaxVectors == 0 {
		c.MaxVectors = 100_000
	}
	if c.ResetCycles == 0 {
		c.ResetCycles = 2
	}
	if c.CurveStride == 0 {
		c.CurveStride = 300
	}
	return c
}

// filterProps keeps the properties observable by a detection model.
func filterProps(all []*props.Property, tag string) []*props.Property {
	if tag == "" {
		return all
	}
	var out []*props.Property
	for _, p := range all {
		if p.HasTag(tag) {
			out = append(out, p)
		}
	}
	return out
}

// greybox is the shared coverage-guided mutation loop.
type greybox struct {
	name       string
	cfgc       Config
	d          *elab.Design
	detectTag  string // "" = assertion-level visibility
	feedback   func(d *elab.Design) cov.Monitor
	seqLen     int     // items per test; 0 = continuous (no reset between)
	mutateBias float64 // probability of mutating a corpus seed
}

// Name implements Fuzzer.
func (g *greybox) Name() string { return g.name }

// Run implements Fuzzer.
func (g *greybox) Run() (*Result, error) {
	c := g.cfgc.withDefaults()
	env, err := uvm.NewEnv(g.d, uvm.EnvConfig{
		Seed:        c.Seed,
		Properties:  filterProps(c.Properties, g.detectTag),
		ResetCycles: c.ResetCycles,
	})
	if err != nil {
		return nil, err
	}
	own := g.feedback(g.d)
	ref := cov.NewCFGCov(c.Graph)
	cov.Attach(env.Sim, cov.NewMulti(own, ref))
	if err := env.Reset(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	res := &Result{Name: g.name}
	// The corpus holds whole test sequences, the unit coverage-guided
	// mutation operates on: replaying a stored sequence reproduces the
	// sustained multi-cycle patterns (counters, serial frames) that
	// per-cycle mutation would destroy.
	var corpus [][]*uvm.Item
	seq := env.Agent.Sequencer
	lastOwn := own.Points()
	bugSeen := 0
	var nextCurve uint64

	n := g.seqLen
	if n <= 0 {
		n = 64 // continuous chunk between bookkeeping points
	}
	pickParent := func() []*uvm.Item {
		// Favor the coverage frontier: most energy goes to the most
		// recently accepted seed (it carries the deepest counter or
		// longest frame found so far), some to the recent tail, the
		// rest spread uniformly for diversity.
		r := rng.Float64()
		switch {
		case r < 0.6:
			return corpus[len(corpus)-1]
		case r < 0.8:
			tail := 8
			if len(corpus) < tail {
				tail = len(corpus)
			}
			return corpus[len(corpus)-tail+rng.Intn(tail)]
		default:
			return corpus[rng.Intn(len(corpus))]
		}
	}

	newSequence := func() []*uvm.Item {
		if len(corpus) > 0 && rng.Float64() < g.mutateBias {
			parent := pickParent()
			child := append([]*uvm.Item(nil), parent...)
			if rng.Float64() < 0.3 && len(child) >= 4 {
				// Havoc splice: duplicate a span of the test over a
				// later window, the block-copy mutation AFL-family
				// fuzzers use; it doubles repeated patterns, which is
				// how counter- and frame-shaped triggers are climbed.
				start := rng.Intn(len(child) - 1)
				span := 1 + rng.Intn(len(child)-start-1)
				dst := start + span
				for i := 0; i < span && dst+i < len(child); i++ {
					child[dst+i] = child[start+i]
				}
			} else {
				for k := 1 + rng.Intn(4); k > 0; k-- {
					if rng.Intn(2) == 0 {
						// Copy-and-tweak: replicate one cycle's stimulus
						// at another position, the item-level analogue
						// of AFL's copy mutations.
						child[rng.Intn(len(child))] = seq.Mutate(child[rng.Intn(len(child))])
					} else {
						pos := rng.Intn(len(child))
						child[pos] = seq.Mutate(child[pos])
					}
				}
			}
			return child
		}
		out := make([]*uvm.Item, n)
		for i := range out {
			out[i] = seq.NextItem()
		}
		return out
	}

	for res.Vectors < c.MaxVectors {
		if g.seqLen > 0 {
			// Test-per-reset model (RFuzz/HWFP): a fresh sequence from
			// the reset state every time.
			if err := env.Reset(); err != nil {
				return nil, err
			}
			ref.ResetPosition()
		}
		test := newSequence()
		for i := 0; i < len(test) && res.Vectors < c.MaxVectors; i++ {
			if err := env.Agent.Driver.Apply(test[i]); err != nil {
				return nil, err
			}
			res.Vectors++
			if res.Vectors >= nextCurve {
				res.Curve = append(res.Curve, core.CurvePoint{Vectors: res.Vectors, Points: ref.Points()})
				nextCurve += c.CurveStride
			}
		}
		if p := own.Points(); p > lastOwn {
			lastOwn = p
			corpus = append(corpus, test)
			if len(corpus) > 1024 {
				corpus = corpus[1:]
			}
		}
		vs := env.Violations()
		for ; bugSeen < len(vs); bugSeen++ {
			res.Bugs = append(res.Bugs, core.BugRecord{Violation: vs[bugSeen], Vectors: res.Vectors})
		}
	}
	res.FinalPoints = ref.Points()
	res.OwnPoints = own.Points()
	res.Curve = append(res.Curve, core.CurvePoint{Vectors: res.Vectors, Points: ref.Points()})
	return res, nil
}

// NewRFuzz builds the RFuzz baseline: mux-coverage feedback, short
// sequences with full resets, and output-visibility detection.
func NewRFuzz(d *elab.Design, c Config) Fuzzer {
	return &greybox{
		name: "rfuzz", cfgc: c, d: d,
		detectTag: TagOutputVisible,
		feedback: func(d *elab.Design) cov.Monitor {
			total := 0
			for _, bi := range d.BranchInfo {
				total += bi.Arms
			}
			return cov.NewMuxCov(total)
		},
		seqLen:     16,
		mutateBias: 0.8,
	}
}

// NewDifuzzRTL builds the DifuzzRTL baseline: hashed control-register
// coverage over long per-reset test sequences (the tool replays
// generated instruction programs from reset), golden-reference
// detection.
func NewDifuzzRTL(d *elab.Design, c Config) Fuzzer {
	return &greybox{
		name: "difuzzrtl", cfgc: c, d: d,
		detectTag: TagArchDiff,
		feedback: func(d *elab.Design) cov.Monitor {
			// DifuzzRTL instruments flip-flops (control registers),
			// not combinational nets.
			var regs []int
			for _, cr := range cfg.ControlRegisters(d) {
				if cr.Sig.IsReg {
					regs = append(regs, cr.Sig.Index)
				}
			}
			return cov.NewRegCov(regs)
		},
		seqLen:     48,
		mutateBias: 0.8,
	}
}

// NewHWFP builds the HWFP ("fuzzing hardware like software") baseline:
// AFL edge-hash feedback on the translated model, per-test resets,
// golden-reference detection.
func NewHWFP(d *elab.Design, c Config) Fuzzer {
	return &greybox{
		name: "hwfp", cfgc: c, d: d,
		detectTag: TagArchDiff,
		feedback: func(d *elab.Design) cov.Monitor {
			return cov.NewEdgeHashCov()
		},
		seqLen:     24,
		mutateBias: 0.85,
	}
}

// uvmRandom is the unguided constrained-random baseline (§5.3).
type uvmRandom struct {
	cfgc Config
	d    *elab.Design
}

// NewUVMRandom builds the UVM random-testing baseline.
func NewUVMRandom(d *elab.Design, c Config) Fuzzer {
	return &uvmRandom{cfgc: c, d: d}
}

// Name implements Fuzzer.
func (u *uvmRandom) Name() string { return "uvm-random" }

// Run implements Fuzzer: pure random stimulus with no feedback at all.
func (u *uvmRandom) Run() (*Result, error) {
	c := u.cfgc.withDefaults()
	env, err := uvm.NewEnv(u.d, uvm.EnvConfig{
		Seed:        c.Seed,
		Properties:  c.Properties, // UVM monitors carry the assertions
		ResetCycles: c.ResetCycles,
	})
	if err != nil {
		return nil, err
	}
	ref := cov.NewCFGCov(c.Graph)
	cov.Attach(env.Sim, ref)
	if err := env.Reset(); err != nil {
		return nil, err
	}
	res := &Result{Name: u.Name()}
	bugSeen := 0
	var nextCurve uint64
	for res.Vectors < c.MaxVectors {
		if _, err := env.Step(); err != nil {
			return nil, err
		}
		res.Vectors++
		if res.Vectors >= nextCurve {
			res.Curve = append(res.Curve, core.CurvePoint{Vectors: res.Vectors, Points: ref.Points()})
			nextCurve += c.CurveStride
		}
		vs := env.Violations()
		for ; bugSeen < len(vs); bugSeen++ {
			res.Bugs = append(res.Bugs, core.BugRecord{Violation: vs[bugSeen], Vectors: res.Vectors})
		}
	}
	res.FinalPoints = ref.Points()
	res.OwnPoints = ref.Points()
	res.Curve = append(res.Curve, core.CurvePoint{Vectors: res.Vectors, Points: ref.Points()})
	return res, nil
}

// RunSymbFuzz adapts the core engine to the baseline Result shape so
// the evaluation harness treats all tools uniformly. The engine runs on
// the prepared model m, whose partition is typically also c.Graph.
func RunSymbFuzz(m *core.Model, c Config, engineCfg core.Config) (*Result, error) {
	engineCfg.MaxVectors = c.withDefaults().MaxVectors
	engineCfg.Seed = c.Seed
	if engineCfg.CurveStride == 0 {
		engineCfg.CurveStride = c.withDefaults().CurveStride
	}
	eng, err := core.NewFromModel(m, c.Properties, engineCfg)
	if err != nil {
		return nil, err
	}
	rep, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:        "symbfuzz",
		Bugs:        rep.Bugs,
		Curve:       rep.Curve,
		FinalPoints: rep.FinalPoints,
		OwnPoints:   rep.FinalPoints,
		Vectors:     rep.Vectors,
	}, nil
}

// FoundBug reports whether a result contains a violation of the named
// property.
func (r *Result) FoundBug(property string) bool {
	for _, b := range r.Bugs {
		if b.Property == property {
			return true
		}
	}
	return false
}

// VectorsFor returns the input-vector count at which the named property
// first fired (0 when not found).
func (r *Result) VectorsFor(property string) uint64 {
	for _, b := range r.Bugs {
		if b.Property == property {
			return b.Vectors
		}
	}
	return 0
}
