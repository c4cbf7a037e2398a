package props

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/sim"
)

// fakeDUV serves a signal table to a Checker: the reads a Checker
// makes, and nothing else (any other method panics on the nil DUV).
type fakeDUV struct {
	sim.DUV
	d    *elab.Design
	vals []logic.BV
}

func (f *fakeDUV) Design() *elab.Design          { return f.d }
func (f *fakeDUV) Words(sig int) (a, b []uint64) { return f.vals[sig].Words() }
func (f *fakeDUV) Cycle() uint64                 { return 0 }
func (f *fakeDUV) OnCycle(sim.CycleListener)     {}
func (f *fakeDUV) SignalIndex(name string) int {
	if s, ok := f.d.ByName[name]; ok {
		return s.Index
	}
	return -1
}

// randBV draws a four-state value: all X, known with scattered X/Z
// bits, a small known number (so comparisons with literals and with
// other signals tie often), or random known bits.
func randBV(rng *rand.Rand, width int) logic.BV {
	nw := (width + 63) / 64
	a, b := make([]uint64, nw), make([]uint64, nw)
	switch mode := rng.Intn(8); {
	case mode == 0:
		for i := range a {
			a[i], b[i] = ^uint64(0), ^uint64(0)
		}
	case mode < 3:
		for i := range a {
			a[i], b[i] = rng.Uint64(), rng.Uint64()&rng.Uint64()&rng.Uint64()
		}
	case mode < 6:
		a[0] = uint64(rng.Intn(16))
	default:
		for i := range a {
			a[i] = rng.Uint64()
		}
	}
	return logic.FromWords(width, a, b)
}

// checkCompiled drives a one-property Checker over random samples and
// asserts that its compiled evaluation equals Expr.Eval over freshly
// built vectors, $past history included. About one signal in eight is
// left out of the DUV, so it reads as X.
func checkCompiled(t *testing.T, e Expr, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := map[string]int{}
	e.Signals(set)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	d := &elab.Design{ByName: map[string]*elab.Signal{}}
	for _, n := range names {
		if rng.Intn(8) == 0 {
			continue
		}
		sig := &elab.Signal{Index: len(d.Signals), Name: n, Width: 1 + rng.Intn(130)}
		d.Signals = append(d.Signals, sig)
		d.ByName[n] = sig
	}
	duv := &fakeDUV{d: d, vals: make([]logic.BV, len(d.Signals))}
	chk := NewChecker(&Property{Name: "p", Expr: e})
	chk.FirstOnly = false
	chk.Bind(duv)
	ctx := &fakeCtx{vals: map[string]logic.BV{}, past: map[string][]logic.BV{}}
	for cycle := 0; cycle < 2*chk.histLen+2; cycle++ {
		for i, s := range d.Signals {
			duv.vals[i] = randBV(rng, s.Width)
		}
		if !chk.resolved {
			chk.resolve()
		}
		got := chk.compiled[0].expr()
		for _, n := range names {
			v := logic.X(1)
			if s, ok := d.ByName[n]; ok {
				a, b := duv.vals[s.Index].Words()
				v = logic.FromWords(s.Width, a, b)
			}
			ctx.vals[n] = v
		}
		want := e.Eval(ctx)
		if !eq4(got, wvOf(want)) {
			t.Fatalf("%s at cycle %d: compiled %s, Eval %s (vals %v, past %v)",
				e, cycle, logic.FromWords(got.width, got.a, got.b), want, ctx.vals, ctx.past)
		}
		chk.Sample()
		for _, n := range names {
			if _, ok := d.ByName[n]; !ok {
				continue
			}
			h := append([]logic.BV{ctx.vals[n]}, ctx.past[n]...)
			ctx.past[n] = h[:min(len(h), chk.histLen)]
		}
	}
}

// propSeeds are property texts in the shapes the builtin designs and
// the -prop flag use.
var propSeeds = []string{
	"a == 4'd5",
	"a == 5",
	"a != b && b < a",
	"a <= 4'd5 || a > b",
	"a >= 4'd6",
	"!en |-> a == 4'd4",
	"$past(a) == 4'd2",
	"$past(a, 2) == 4'd9 && $stable(b)",
	"$isunknown(xsig)",
	"$isinside(a, 4'd1, 4'd5)",
	"u.deep.sig[7:4] == 4'hA",
	"u.deep.sig[0]",
	"|(a[3:1]) |-> (b == 4'bx01z)",
	"(a == 4'd5) && (b == 4'd3)",
	"en |-> (a > b && b != 4'd0)",
	"rd != 32'h0 && $past(stage, 3) == 3'd2",
}

// FuzzProp feeds arbitrary text to ParseExpr, which must return an
// error rather than panic, and checks every expression it accepts with
// checkCompiled.
func FuzzProp(f *testing.F) {
	for i, s := range propSeeds {
		f.Add(s, int64(i))
	}
	f.Add("a[0:3]", int64(1))
	f.Add("a[99999999:0]", int64(2))
	f.Add("$past(a, 100000000)", int64(3))
	f.Add("99999999'h0", int64(4))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		e, err := ParseExpr(src)
		if err != nil {
			return
		}
		checkCompiled(t, e, seed)
	})
}

// TestCompiledMatchesEval runs the FuzzProp check over combinator-built
// expressions, which reach the operators the parser has no syntax for.
func TestCompiledMatchesEval(t *testing.T) {
	perm := Sig("perm_q")
	exprs := []Expr{
		Eq(Sig("mask_o"), Concat(Index(perm, 0), Slice(perm, 31, 1))),
		Concat(Sig("a"), Past("b", 2), U(3, 5), Slice(Sig("c"), 70, 60)),
		Eq(Add(Sig("a"), Sig("b")), Sub(Sig("c"), U(64, 3))),
		Ne(BAnd(Sig("a"), BOr(Sig("b"), BXor(Sig("c"), Past("a", 1)))), U(8, 0)),
		IsUnknown(Slice(Sig("a"), 140, 0)),
		Implies(Stable("a"), Lt(Past("a", 3), Sig("b"))),
		And(B(true), Or(Not(Sig("a")), RedOr(Sig("b")))),
		IsInside(Sig("a"), U(4, 1), U(4, 2), Sig("b")),
	}
	for _, src := range propSeeds {
		exprs = append(exprs, MustParseExpr(src))
	}
	for i, e := range exprs {
		for seed := int64(0); seed < 20; seed++ {
			checkCompiled(t, e, seed*31+int64(i))
		}
	}
}

// TestParseRejectsUnbounded pins the parser's bounds: each of these
// used to parse and then panic or allocate at evaluation.
func TestParseRejectsUnbounded(t *testing.T) {
	for _, src := range []string{"a[0:3]", "a[99999999:0]", "$past(a, 100000000)", "99999999'h0",
		"4'h" + strings.Repeat("f", 5000)} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("%.40q parsed, want an error", src)
		}
	}
}
