// Package designs contains the benchmark RTL, written in the repo's HDL
// subset, that stands in for the paper's evaluation targets (§5): an
// OpenTitan-mini SoC of thirteen IP blocks carrying the fourteen
// security bugs of Table 1 behind per-bug toggles, the toy ALU of
// Listing 1, and three small processor cores (CVA6-mini, Rocket-mini,
// Mor1kx-mini) carrying the cross-paper bugs V1–V3 of §5.4. Each bug
// ships with the security property (§4.9) that detects it, transcribed
// from the paper's listings, and with observability tags that encode
// which detection models can see it (§5.2).
package designs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/props"
)

// Bug describes one planted vulnerability.
type Bug struct {
	// ID is the paper's bug number ("B01".."B14", "V1".."V3").
	ID string
	// Description matches Table 1's wording.
	Description string
	// SubModule is the afflicted module (Table 1 column 3).
	SubModule string
	// CWE classification (Table 1 column 5).
	CWE string
	// Property builds the detecting assertion; prefix is the instance
	// path under which the IP's signals live ("" when standalone).
	Property func(prefix string) *props.Property
}

// IP is one fuzzable hardware block.
type IP struct {
	// Name is the top module name of the block.
	Name string
	// Source renders the block's HDL; buggy selects the planted-bug
	// variant (all bugs of the block enabled) versus the fixed one.
	Source func(buggy bool) string
	// Bugs planted in this block.
	Bugs []Bug
	// Extra modules the source depends on (already included in Source).
	Desc string
}

// Benchmark is a ready-to-elaborate design plus its properties.
type Benchmark struct {
	Name       string
	Top        string
	Source     string
	Properties []*props.Property
	Bugs       []Bug
	LoC        int
}

// Elaborate parses and elaborates the benchmark.
func (b *Benchmark) Elaborate() (*elab.Design, error) {
	ast, err := hdl.Parse(b.Source)
	if err != nil {
		return nil, fmt.Errorf("designs: parse %s: %w", b.Name, err)
	}
	d, err := elab.Elaborate(ast, b.Top, nil)
	if err != nil {
		return nil, fmt.Errorf("designs: elaborate %s: %w", b.Name, err)
	}
	d.SourceLoC = b.LoC
	return d, nil
}

// countLoC counts non-blank source lines.
func countLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// pick substitutes the buggy or fixed snippet.
func pick(buggy bool, buggySnippet, fixedSnippet string) string {
	if buggy {
		return buggySnippet
	}
	return fixedSnippet
}

// prefixed joins an instance prefix and a signal name.
func prefixed(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

// notReset is the standard DisableIff guard for an active-low reset.
func notReset(prefix string) props.Expr {
	return props.Not(props.Sig(prefixed(prefix, "rst_ni")))
}

// AllIPs returns the OpenTitan-mini IP blocks in a stable order.
func AllIPs() []IP {
	return []IP{
		Mailbox(),
		LCCtrl(),
		AES(),
		OTBN(),
		ROMCtrl(),
		PwrMgr(),
		UART(),
		CSRNG(),
		SysRst(),
		OTP(),
	}
}

// IPBenchmark builds a standalone benchmark for one IP.
func IPBenchmark(ip IP, buggy bool) *Benchmark {
	src := ip.Source(buggy)
	b := &Benchmark{
		Name:   ip.Name,
		Top:    ip.Name,
		Source: src,
		Bugs:   ip.Bugs,
		LoC:    countLoC(src),
	}
	for _, bug := range ip.Bugs {
		b.Properties = append(b.Properties, bug.Property(""))
	}
	return b
}

// FindIP returns the IP carrying the given bug ID.
func FindIP(bugID string) (IP, Bug, bool) {
	for _, ip := range AllIPs() {
		for _, bug := range ip.Bugs {
			if bug.ID == bugID {
				return ip, bug, true
			}
		}
	}
	return IP{}, Bug{}, false
}

// builtin is one row of the builtin benchmark table: a name and the
// constructor of its planted-bug (buggy) or bug-free variant.
type builtin struct {
	name  string
	build func(buggy bool) *Benchmark
}

// builtins is the one builtin benchmark table, in a stable order: the
// ALU and bus arbiter (one variant each), each IP block standalone, the
// three processor cores, and the assembled SoC.
func builtins() []builtin {
	t := []builtin{
		{"alu", func(bool) *Benchmark { return ALU() }},
		{"bus_arb", func(bool) *Benchmark { return BusArb() }},
	}
	for _, ip := range AllIPs() {
		ip := ip
		t = append(t, builtin{ip.Name, func(buggy bool) *Benchmark { return IPBenchmark(ip, buggy) }})
	}
	return append(t,
		builtin{"cva6_mini", CVA6Mini},
		builtin{"rocket_mini", RocketMini},
		builtin{"mor1kx_mini", Mor1kxMini},
		builtin{"opentitan_mini", func(buggy bool) *Benchmark {
			if buggy {
				return OpenTitanMini(nil)
			}
			return OpenTitanMini(map[string]bool{})
		}},
	)
}

// AllBenchmarks returns every builtin benchmark in its fixed (bug-free)
// variant, in table order. This is the design set static-analysis
// tooling (cmd/hdllint, the lint-clean tests) runs over.
func AllBenchmarks() []*Benchmark {
	var out []*Benchmark
	for _, b := range builtins() {
		out = append(out, b.build(false))
	}
	return out
}

// Lookup resolves a builtin benchmark by name: its planted-bug variant,
// or with fixed its bug-free one (alu and bus_arb have only one). The
// CLIs and distributed campaign specs resolve through it.
func Lookup(name string, fixed bool) (*Benchmark, error) {
	for _, b := range builtins() {
		if b.name == name {
			return b.build(!fixed), nil
		}
	}
	return nil, fmt.Errorf("unknown benchmark %q", name)
}

// ExternalSignals names the signals the benchmark's bound properties
// observe; they count as read even when nothing in the RTL reads them.
func (b *Benchmark) ExternalSignals() map[string]bool {
	out := map[string]bool{}
	set := map[string]int{}
	for _, p := range b.Properties {
		p.Expr.Signals(set)
		if p.DisableIff != nil {
			p.DisableIff.Signals(set)
		}
	}
	for name := range set {
		out[name] = true
	}
	return out
}

// AllBugs lists every planted SoC bug sorted by ID.
func AllBugs() []Bug {
	var out []Bug
	for _, ip := range AllIPs() {
		out = append(out, ip.Bugs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
