package dist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/par"
	"repro/internal/props"
)

// ResolveSpec turns a wire campaign spec into the benchmark and the
// full property set. Both sides of the protocol run it — the
// coordinator to validate the campaign and shape the frontier, each
// worker to build its engines — so a registry benchmark resolves from
// the binary's own designs package and only -src campaigns ship HDL
// source over the wire.
func ResolveSpec(s CampaignSpec) (*designs.Benchmark, []*props.Property, error) {
	var b *designs.Benchmark
	switch {
	case s.Source != "":
		if s.Top == "" {
			return nil, nil, fmt.Errorf("dist: spec ships source but no top module")
		}
		b = &designs.Benchmark{Name: s.Top, Top: s.Top, Source: s.Source}
	case s.Bench != "":
		var err error
		b, err = designs.Lookup(s.Bench, s.Fixed)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: %w", err)
		}
	default:
		return nil, nil, fmt.Errorf("dist: spec names neither a benchmark nor a source file")
	}
	properties := make([]*props.Property, 0, len(b.Properties)+len(s.Props))
	properties = append(properties, b.Properties...)
	for _, ps := range s.Props {
		p, err := props.ParseProperty(ps.Name, ps.Expr, ps.DisableIff)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: property %q: %w", ps.Name, err)
		}
		properties = append(properties, p)
	}
	return b, properties, nil
}

// specEqual compares campaign specs field by field (CampaignSpec
// holds a slice, so == does not apply).
func specEqual(a, b CampaignSpec) bool {
	if len(a.Props) != len(b.Props) {
		return false
	}
	for i := range a.Props {
		if a.Props[i] != b.Props[i] {
			return false
		}
	}
	return a.Bench == b.Bench && a.Fixed == b.Fixed &&
		a.Source == b.Source && a.Top == b.Top &&
		a.Interval == b.Interval && a.Threshold == b.Threshold &&
		a.MaxVectors == b.MaxVectors && a.Seed == b.Seed &&
		a.Workers == b.Workers && a.UseSnapshots == b.UseSnapshots &&
		a.ContinueAfterCoverage == b.ContinueAfterCoverage &&
		a.DisableSlicing == b.DisableSlicing &&
		a.Profile == b.Profile &&
		a.SimBackend == b.SimBackend
}

// specConfig builds rank's engine configuration from the campaign
// spec — the exact recipe par.RunContext uses for its in-process
// workers, which is what makes the merged reports agree.
func specConfig(s CampaignSpec, rank int) core.Config {
	wc := core.Config{
		Interval:              s.Interval,
		Threshold:             s.Threshold,
		MaxVectors:            s.MaxVectors,
		Seed:                  par.WorkerSeed(s.Seed, rank),
		SharedSeed:            s.Seed,
		UseSnapshots:          s.UseSnapshots,
		ContinueAfterCoverage: s.ContinueAfterCoverage,
		DisableSlicing:        s.DisableSlicing,
		SimBackend:            s.SimBackend,
	}
	if s.Workers > 1 {
		wc.Shard = core.ShardSpec{Rank: rank, Workers: s.Workers}
	}
	return wc
}
