package props

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
)

// wv is a four-state value as word planes, the aval/bval encoding of a
// logic.BV: exactly ceil(width/64) words per plane, bits above width
// zero. It is the form the Checker evaluates properties in. A wv a
// compiled node returns aliases the node's own buffer, the DUV's
// state, a history ring or a constant, and its consumer only reads it.
type wv struct {
	width int
	a, b  []uint64
}

// evalFn evaluates one compiled expression node against the checker's
// current sample.
type evalFn func() wv

func wvOf(v logic.BV) wv {
	a, b := v.Words()
	return wv{v.Width(), a, b}
}

// The 1-bit results, shared like logic's own.
var (
	zero1 = wvOf(logic.Zero(1))
	one1  = wvOf(logic.Ones(1))
	x1    = wvOf(logic.X(1))
)

func bitWV(b logic.Bit) wv {
	switch b {
	case logic.L1:
		return one1
	case logic.L0:
		return zero1
	}
	return x1
}

func boolWV(b bool) wv {
	if b {
		return one1
	}
	return zero1
}

func (v wv) unknown() bool {
	for _, w := range v.b {
		if w != 0 {
			return true
		}
	}
	return false
}

// truthy is logic.BV.Truthy.
func (v wv) truthy() logic.Bit {
	anyOne, anyUnk := false, false
	for i := range v.a {
		anyOne = anyOne || v.a[i]&^v.b[i] != 0
		anyUnk = anyUnk || v.b[i] != 0
	}
	switch {
	case anyOne:
		return logic.L1
	case anyUnk:
		return logic.LX
	}
	return logic.L0
}

// eq4 is logic.BV.Eq4.
func eq4(x, y wv) bool {
	if x.width != y.width {
		return false
	}
	for i := range x.a {
		if x.a[i] != y.a[i] || x.b[i] != y.b[i] {
			return false
		}
	}
	return true
}

// cmp compares the value planes of two known values of one width.
func cmp(x, y wv) int {
	for i := len(x.a) - 1; i >= 0; i-- {
		switch {
		case x.a[i] < y.a[i]:
			return -1
		case x.a[i] > y.a[i]:
			return 1
		}
	}
	return 0
}

// buf is a node's result buffer. It grows to the widest value the node
// has produced and is reused from then on, so a steady evaluation
// allocates nothing.
type buf struct{ a, b []uint64 }

// take returns a zeroed value of the given width over the buffer.
func (bf *buf) take(width int) wv {
	n := (width + 63) / 64
	if cap(bf.a) < n {
		bf.a, bf.b = make([]uint64, n), make([]uint64, n)
	}
	v := wv{width, bf.a[:n], bf.b[:n]}
	clear(v.a)
	clear(v.b)
	return v
}

// mask clears the bits above the width in the top word.
func (v wv) mask() wv {
	if r := v.width % 64; r != 0 && len(v.a) > 0 {
		m := uint64(1)<<r - 1
		v.a[len(v.a)-1] &= m
		v.b[len(v.b)-1] &= m
	}
	return v
}

// extend zero-extends v to width w >= v.width, as logic.BV.Resize
// does, copying into bf only when the width changes.
func extend(v wv, w int, bf *buf) wv {
	if v.width == w {
		return v
	}
	out := bf.take(w)
	copy(out.a, v.a)
	copy(out.b, v.b)
	return out
}

// orInto ORs v's planes into out starting at bit off.
func orInto(out wv, v wv, off int) {
	ws, sh := off/64, uint(off%64)
	for i := range v.a {
		out.a[ws+i] |= v.a[i] << sh
		out.b[ws+i] |= v.b[i] << sh
		if sh > 0 && ws+i+1 < len(out.a) {
			out.a[ws+i+1] |= v.a[i] >> (64 - sh)
			out.b[ws+i+1] |= v.b[i] >> (64 - sh)
		}
	}
}

// compile lowers an expression to a closure tree over the bound DUV
// and the history rings. Each node's result equals Expr.Eval's on the
// same sample, operator for operator (the FuzzProp target checks it),
// but no node allocates once its buffer has grown. Expression types
// from outside this package fall back to Eval.
func (c *Checker) compile(e Expr) evalFn {
	switch e := e.(type) {
	case sigExpr:
		h := &c.hist[c.histIdx[e.name]]
		if h.sig < 0 {
			return func() wv { return x1 }
		}
		return func() wv {
			a, b := c.sim.Words(h.sig)
			return wv{h.width, a, b}
		}
	case constExpr:
		v := wvOf(e.v)
		return func() wv { return v }
	case pastExpr:
		return c.compilePast(e.name, e.n)
	case stableExpr:
		cur, past := c.compile(sigExpr{e.name}), c.compilePast(e.name, 1)
		return func() wv { return boolWV(eq4(cur(), past())) }
	case isUnknownExpr:
		x := c.compile(e.x)
		return func() wv { return boolWV(x().unknown()) }
	case notExpr:
		x := c.compile(e.x)
		return func() wv {
			switch x().truthy() {
			case logic.L1:
				return zero1
			case logic.L0:
				return one1
			}
			return x1
		}
	case redOrExpr:
		x := c.compile(e.x)
		return func() wv { return bitWV(x().truthy()) }
	case sliceExpr:
		return compileSlice(c.compile(e.x), e.hi, e.lo)
	case concatExpr:
		return compileConcat(c, e.parts)
	case impliesExpr:
		a, k := c.compile(e.a), c.compile(e.c)
		return func() wv {
			if a().truthy() != logic.L1 {
				return one1
			}
			return bitWV(k().truthy())
		}
	case binExpr:
		return compileBin(e.op, c.compile(e.x), c.compile(e.y))
	}
	return func() wv { return wvOf(e.Eval(c)) }
}

// compilePast reads the ring slot n samples back, X before the ring
// holds that many.
func (c *Checker) compilePast(name string, n int) evalFn {
	h := &c.hist[c.histIdx[name]]
	if h.sig < 0 || n > c.histLen {
		return func() wv { return x1 }
	}
	return func() wv {
		if n > c.histFilled {
			return x1
		}
		off := c.slot(n) * h.nw
		return wv{h.width, h.a[off : off+h.nw], h.b[off : off+h.nw]}
	}
}

// compileSlice is logic.BV.Extract: bits [hi:lo], X where out of range.
func compileSlice(x evalFn, hi, lo int) evalFn {
	if hi < lo {
		return func() wv { panic(fmt.Sprintf("logic: invalid extract [%d:%d]", hi, lo)) }
	}
	var out buf
	return func() wv {
		v, r := x(), out.take(hi-lo+1)
		for i := 0; i < r.width; i++ {
			a, b := uint64(1), uint64(1)
			if src := lo + i; src >= 0 && src < v.width {
				a, b = v.a[src/64]>>(src%64)&1, v.b[src/64]>>(src%64)&1
			}
			r.a[i/64] |= a << (i % 64)
			r.b[i/64] |= b << (i % 64)
		}
		return r
	}
}

// compileConcat is logic.BV.Concat folded over the parts, the first in
// the most significant bits.
func compileConcat(c *Checker, parts []Expr) evalFn {
	fns := make([]evalFn, len(parts))
	for i, p := range parts {
		fns[i] = c.compile(p)
	}
	vals := make([]wv, len(parts))
	var out buf
	return func() wv {
		width := 0
		for i, f := range fns {
			vals[i] = f()
			width += vals[i].width
		}
		r := out.take(width)
		off := 0
		for i := len(vals) - 1; i >= 0; i-- {
			orInto(r, vals[i], off)
			off += vals[i].width
		}
		return r
	}
}

// compileBin lowers a binary operator: the logical ones on truth
// values, the rest on operands zero-extended to a common width.
func compileBin(op string, x, y evalFn) evalFn {
	switch op {
	case "&&":
		return func() wv {
			p, q := x().truthy(), y().truthy()
			switch {
			case p == logic.L0 || q == logic.L0:
				return zero1
			case p == logic.L1 && q == logic.L1:
				return one1
			}
			return x1
		}
	case "||":
		return func() wv {
			p, q := x().truthy(), y().truthy()
			switch {
			case p == logic.L1 || q == logic.L1:
				return one1
			case p == logic.L0 && q == logic.L0:
				return zero1
			}
			return x1
		}
	}
	var f func(p, q wv, out *buf) wv
	switch op {
	case "==", "!=", "<", "<=":
		want := map[string]func(int) bool{
			"==": func(c int) bool { return c == 0 },
			"!=": func(c int) bool { return c != 0 },
			"<":  func(c int) bool { return c < 0 },
			"<=": func(c int) bool { return c <= 0 },
		}[op]
		f = func(p, q wv, _ *buf) wv {
			if p.unknown() || q.unknown() {
				return x1
			}
			return boolWV(want(cmp(p, q)))
		}
	case "&", "|", "^":
		f = func(p, q wv, out *buf) wv { return bitwise(op, p, q, out.take(p.width)) }
	case "+", "-":
		f = func(p, q wv, out *buf) wv { return arith(op == "-", p, q, out.take(p.width)) }
	default:
		return func() wv { panic("props: unknown operator " + op) }
	}
	var ep, eq, out buf
	return func() wv {
		p, q := x(), y()
		w := max(p.width, q.width)
		return f(extend(p, w, &ep), extend(q, w, &eq), &out)
	}
}

// bitwise is logic.BV's And, Or and Xor into r.
func bitwise(op string, p, q, r wv) wv {
	for i := range r.a {
		if op == "^" {
			unk := p.b[i] | q.b[i]
			r.a[i] = (p.a[i]^q.a[i])&^unk | unk
			r.b[i] = unk
			continue
		}
		k1p, k1q := p.a[i]&^p.b[i], q.a[i]&^q.b[i]
		k0p, k0q := ^p.a[i]&^p.b[i], ^q.a[i]&^q.b[i]
		one, zero := k1p&k1q, k0p|k0q
		if op == "|" {
			one, zero = k1p|k1q, k0p&k0q
		}
		unk := ^(one | zero)
		r.a[i] = one | unk
		r.b[i] = unk
	}
	return r.mask()
}

// arith is logic.BV's Add or Sub into r: all X when an operand has an
// unknown bit.
func arith(sub bool, p, q, r wv) wv {
	if p.unknown() || q.unknown() {
		for i := range r.a {
			r.a[i], r.b[i] = ^uint64(0), ^uint64(0)
		}
		return r.mask()
	}
	var carry uint64
	for i := range r.a {
		if sub {
			r.a[i], carry = bits.Sub64(p.a[i], q.a[i], carry)
		} else {
			r.a[i], carry = bits.Add64(p.a[i], q.a[i], carry)
		}
	}
	return r.mask()
}
