package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestMinPairAlternatesAndKeepsMinimum(t *testing.T) {
	var calls []string
	arm := func(name string, walls ...int64) func() (int64, error) {
		i := 0
		return func() (int64, error) {
			calls = append(calls, name)
			i++
			return walls[i-1], nil
		}
	}
	a, b, err := minPair(3, arm("A", 30, 10, 20), arm("B", 5, 7, 6))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"A", "B", "A", "B", "A", "B"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("call order %v, want %v", calls, want)
	}
	if a != 10 || b != 5 {
		t.Fatalf("minima %d, %d; want 10, 5", a, b)
	}
}

func TestOverheadGate(t *testing.T) {
	var o overhead
	if err := o.gate("spans", 105, 100); err != nil || !o.Within5 || o.Overhead != 1.05 {
		t.Fatalf("1.05x: err %v, within %v, overhead %v", err, o.Within5, o.Overhead)
	}
	err := o.gate("spans", 106, 100)
	if err == nil || o.Within5 {
		t.Fatalf("1.06x passed the gate (within %v)", o.Within5)
	}
	if !strings.Contains(err.Error(), "spans costs 6.00% wall time") {
		t.Fatalf("gate error %q", err)
	}
}

// TestSideCheckFailsRun pins that a side check inside an arm, here a
// canonical-ledger comparison that sees a different ledger on the
// second run, ends the interleaved run with its error.
func TestSideCheckFailsRun(t *testing.T) {
	same := sameEvery[string]("canonical ledger")
	ledgers := []string{"ledger", "ledger", "other"}
	runs := 0
	profiled := func() (int64, error) {
		runs++
		return 1, same(ledgers[runs-1])
	}
	plain := func() (int64, error) { return 1, nil }
	if _, _, err := minPair(2, profiled, plain); err != nil {
		t.Fatalf("equal ledgers failed the run: %v", err)
	}
	_, _, err := minPair(1, profiled, plain)
	if err == nil || !strings.Contains(err.Error(), "canonical ledger diverged") {
		t.Fatalf("ledger mismatch gave %v", err)
	}
	failing := func() (int64, error) { return 0, errors.New("boom") }
	if _, _, err := minPair(3, plain, failing); err == nil {
		t.Fatal("a failing arm did not fail the run")
	}
}

func TestWriteRecordStampsArgv(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	rec := &SliceBench{Seed: 3}
	if err := writeRecord(path, "symbfuzz-bench-slice/v1", rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := append([]any{filepath.Base(os.Args[0])}, anySlice(os.Args[1:])...)
	if !reflect.DeepEqual(got["argv"], want) {
		t.Fatalf("argv %v, want %v", got["argv"], want)
	}
	if got["schema"] != "symbfuzz-bench-slice/v1" || got["seed"] != 3.0 {
		t.Fatalf("record %s", data)
	}
}

func anySlice(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// TestEverySchemaHasMetrics pins the -diff registry to the experiment
// table: each schema an experiment writes is registered, and every
// registered schema has an experiment that writes it.
func TestEverySchemaHasMetrics(t *testing.T) {
	written := map[string]bool{}
	for _, e := range experiments {
		written[e.schema()] = true
		if _, ok := diffMetrics[e.schema()]; !ok {
			t.Errorf("experiment %s writes %s, which -diff does not know", e.name, e.schema())
		}
	}
	for schema := range diffMetrics {
		if !written[schema] {
			t.Errorf("-diff registers %s, which no experiment writes", schema)
		}
	}
}

// TestCommittedRecordsDiff checks that every experiment has a
// committed BENCH_<name>.json record of its schema that -diff parses.
func TestCommittedRecordsDiff(t *testing.T) {
	for _, e := range experiments {
		path := filepath.Join("..", "..", "BENCH_"+e.name+".json")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("no committed record for %s: %v", e.name, err)
			continue
		}
		if _, schema, err := readRecord(path); err != nil || schema != e.schema() {
			t.Errorf("%s: schema %q (err %v), want %q", path, schema, err, e.schema())
		}
		var sb strings.Builder
		failed, err := runDiff(path, path, &sb)
		if err != nil || failed {
			t.Errorf("%s against itself: failed %v, err %v\n%s", path, failed, err, sb.String())
		}
	}
}
