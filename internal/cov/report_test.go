package cov_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/designs"
	"repro/internal/obs"
	"repro/internal/par"
)

// runOverflowCampaign runs a short SoC campaign and returns its engine
// and report plus the value of its cov_table_overflow counter.
func runOverflowCampaign(t *testing.T) (*core.Engine, *core.Report, int64) {
	t.Helper()
	b := designs.OpenTitanMini(nil)
	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{})
	eng, err := core.New(d, b.Properties, core.Config{
		Interval: 40, Threshold: 2, MaxVectors: 600, Seed: 3,
		UseSnapshots: true, SimBackend: "compiled", Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return eng, rep, o.Registry().Counter("cov_table_overflow").Value()
}

// TestReportSurfacesTableOverflow pins the report and metric surface of
// cov.CFGCov.Overflow: under the default table cap the report JSON
// carries no CovTableOverflow key (reports stay byte-identical to
// builds without the field), and with the cap lowered the field, the
// cov_table_overflow counter and the rank merge all carry the count.
func TestReportSurfacesTableOverflow(t *testing.T) {
	_, rep, counted := runOverflowCampaign(t)
	if rep.CovTableOverflow != 0 || counted != 0 {
		t.Fatalf("overflow %d (counter %d) under the default cap", rep.CovTableOverflow, counted)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("CovTableOverflow")) {
		t.Fatalf("default-cap report JSON has a CovTableOverflow key: %s", data)
	}

	defer cov.SetMaxTable(4)()
	eng, rep, counted := runOverflowCampaign(t)
	if rep.CovTableOverflow == 0 {
		t.Fatal("no table overflow reported at a cap of 4")
	}
	if counted != int64(rep.CovTableOverflow) {
		t.Fatalf("cov_table_overflow counter = %d, report field = %d", counted, rep.CovTableOverflow)
	}
	covs := []*cov.CFGCov{eng.Coverage(), eng.Coverage()}
	merged := par.MergeReports(eng.Graph(), covs, []*core.Report{rep, rep})
	if merged.CovTableOverflow != 2*rep.CovTableOverflow {
		t.Fatalf("merged overflow %d, want the sum %d", merged.CovTableOverflow, 2*rep.CovTableOverflow)
	}
}
