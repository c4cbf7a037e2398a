// Package lint is a static-analysis pass over the elaborated design
// model. It runs a catalogue of pluggable checks — structural ones
// (combinational loops, inferred latches, multiple drivers, unused and
// undriven signals, width truncation) and an SMT-backed reachability
// check that proves if/case arms unreachable under the signals' declared
// enum domains and inferred value domains.
//
// Beyond diagnostics, the pass produces Facts: proven value domains per
// signal and proven-dead branch arms. The fuzzing engine consumes these
// facts to prune statically unreachable CFG target nodes before
// dispatching the solver, so no SMT budget is burnt steering toward
// states the RTL cannot occupy.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/elab"
	"repro/internal/hdl"
)

// Severity grades a diagnostic.
type Severity int

// Severities.
const (
	SevWarning Severity = iota
	SevError
)

// String renders the severity.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Diagnostic is one finding of a check.
type Diagnostic struct {
	// Rule is the stable rule ID ("comb-loop", "latch", "multi-driver",
	// "unused-signal", "undriven-signal", "dead-arm", "width-trunc").
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	// Signal is the hierarchical signal name, when the finding anchors
	// to a signal.
	Signal string `json:"signal,omitempty"`
	// Proc is the diagnostic label of the process involved.
	Proc string `json:"proc,omitempty"`
	// Pos is the source position (0:0 when unknown, e.g. synthesized
	// port-connection processes).
	Pos hdl.Pos `json:"pos"`
	// Branch and Arm identify the decision point for dead-arm findings
	// (-1 otherwise).
	Branch int `json:"branch,omitempty"`
	Arm    int `json:"arm,omitempty"`
	// Msg is the human-readable explanation.
	Msg string `json:"msg"`
}

// String renders the diagnostic in a gcc-style single line.
func (d Diagnostic) String() string {
	loc := d.Proc
	if d.Pos != (hdl.Pos{}) {
		loc = fmt.Sprintf("%s:%v", d.Proc, d.Pos)
	}
	if loc == "" {
		loc = d.Signal
	}
	return fmt.Sprintf("%s: %s [%s]: %s", loc, d.Severity, d.Rule, d.Msg)
}

// Check is one pluggable analysis pass.
type Check interface {
	// ID is the stable rule ID the check's diagnostics carry.
	ID() string
	// Description is a one-line summary for the catalogue.
	Description() string
	// Run analyses the design and returns findings. Checks may record
	// proven facts into ctx.Facts.
	Run(ctx *Context) []Diagnostic
}

// Context is the shared state checks run against.
type Context struct {
	Design *elab.Design
	// Facts accumulates proven reachability facts across checks.
	Facts *Facts
	// ExternalReads names signals observed from outside the design
	// (bound properties, testbench probes); they never count as unused.
	ExternalReads map[string]bool
}

// Waiver suppresses diagnostics of one rule, optionally restricted to a
// signal or process whose name contains the given substring.
type Waiver struct {
	Rule string
	// Match is a substring of the signal or process name; empty matches
	// every diagnostic of the rule.
	Match string
	// Reason documents why the finding is accepted.
	Reason string
}

func (w Waiver) covers(d Diagnostic) bool {
	if w.Rule != d.Rule {
		return false
	}
	if w.Match == "" {
		return true
	}
	return strings.Contains(d.Signal, w.Match) || strings.Contains(d.Proc, w.Match)
}

// Options configures a lint run.
type Options struct {
	// ExternalReads marks signals read from outside the design.
	ExternalReads map[string]bool
	// Waivers suppress accepted findings (they are counted, not listed).
	Waivers []Waiver
}

// Result is the outcome of linting one design.
type Result struct {
	Design string       `json:"design"`
	Diags  []Diagnostic `json:"diags"`
	Waived int          `json:"waived"`
	// Facts are the proven reachability facts (not serialized).
	Facts *Facts `json:"-"`
}

// Errors counts error-severity diagnostics.
func (r *Result) Errors() int { return r.count(SevError) }

// Warnings counts warning-severity diagnostics.
func (r *Result) Warnings() int { return r.count(SevWarning) }

func (r *Result) count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Clean reports whether no diagnostics remain after waivers.
func (r *Result) Clean() bool { return len(r.Diags) == 0 }

// AllChecks returns the full check catalogue in execution order. The
// dead-arm check runs last so it sees the domains inferred up front.
func AllChecks() []Check {
	return []Check{
		CombLoopCheck{},
		LatchCheck{},
		MultiDriverCheck{},
		UnusedCheck{},
		WidthTruncCheck{},
		DeadArmCheck{},
	}
}

// Run lints an elaborated design with every check of AllChecks.
func Run(d *elab.Design, opts Options) *Result {
	ctx := &Context{
		Design:        d,
		Facts:         InferDomains(d),
		ExternalReads: opts.ExternalReads,
	}
	res := &Result{Design: d.Name, Facts: ctx.Facts, Diags: []Diagnostic{}}
	for _, c := range AllChecks() {
		for _, diag := range c.Run(ctx) {
			waived := false
			for _, w := range opts.Waivers {
				if w.covers(diag) {
					waived = true
					break
				}
			}
			if waived {
				res.Waived++
			} else {
				res.Diags = append(res.Diags, diag)
			}
		}
	}
	sortDiags(res.Diags)
	return res
}

// sortDiags orders diagnostics for stable output: severity (errors
// first), then rule, position, signal and message.
func sortDiags(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Signal != b.Signal {
			return a.Signal < b.Signal
		}
		return a.Msg < b.Msg
	})
}

// WriteText renders the result in human-readable form.
func (r *Result) WriteText(w io.Writer) {
	if r.Clean() {
		fmt.Fprintf(w, "%s: clean", r.Design)
		if r.Waived > 0 {
			fmt.Fprintf(w, " (%d waived)", r.Waived)
		}
		fmt.Fprintln(w)
		return
	}
	for _, d := range r.Diags {
		fmt.Fprintf(w, "%s: %s\n", r.Design, d)
	}
	fmt.Fprintf(w, "%s: %d error(s), %d warning(s), %d waived\n",
		r.Design, r.Errors(), r.Warnings(), r.Waived)
}

// WriteJSON renders the result as one stable JSON document.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
