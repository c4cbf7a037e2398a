package props

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/logic"
)

// ParseExpr parses an SVA-flavoured property expression:
//
//	rx_parity_err |-> parity_enable
//	state_q == 4'd8 || !lc_nvm_debug_en
//	$past(state_q, 1) == 3'd3 && data_q != $past(data_in)
//	$isunknown(fsm_state_q)
//	$isinside(op, 4'd1, 4'd2)
//	key[7:4] == 4'h5
//
// Signals are hierarchical identifiers (dots allowed). Sized Verilog
// literals carry their width; unsized decimals are 64-bit and rely on
// the evaluator's width equalization. `|->` is the overlapping
// implication and has the lowest precedence.
func ParseExpr(src string) (Expr, error) {
	p := &propParser{toks: lexProp(src), src: src}
	e, err := p.parseImplication()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("props: trailing input %q in %q", p.peek().text, src)
	}
	return e, nil
}

// Bounds on what property text may ask for, so a malformed or hostile
// -prop is an error instead of an allocation the size of the number it
// spells: literal widths and bit-select indices stay below
// maxPropWidth, $past depths at or below maxPastDepth (every tracked
// signal keeps a ring that deep).
const (
	maxPropWidth = 1 << 12
	maxPastDepth = 1 << 10
)

// MustParseExpr is ParseExpr that panics on error.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

// ParseProperty builds a Property from expression sources; disableIff
// may be empty.
func ParseProperty(name, exprSrc, disableIffSrc string) (*Property, error) {
	e, err := ParseExpr(exprSrc)
	if err != nil {
		return nil, err
	}
	p := &Property{Name: name, Expr: e}
	if disableIffSrc != "" {
		d, err := ParseExpr(disableIffSrc)
		if err != nil {
			return nil, err
		}
		p.DisableIff = d
	}
	return p, nil
}

// ---- tokenizer ----

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokSys // $past, $stable, ...
	tokOp  // punctuation / operators
)

type propTok struct {
	kind tokKind
	text string
	pos  int
}

func lexProp(src string) []propTok {
	var out []propTok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '$':
			j := i + 1
			for j < len(src) && isWordByte(src[j]) {
				j++
			}
			out = append(out, propTok{tokSys, src[i:j], i})
			i = j
		case isWordStart(c):
			j := i
			for j < len(src) && (isWordByte(src[j]) || src[j] == '.') {
				j++
			}
			out = append(out, propTok{tokIdent, src[i:j], i})
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '_') {
				j++
			}
			if j < len(src) && src[j] == '\'' {
				j++
				if j < len(src) && (src[j] == 's' || src[j] == 'S') {
					j++
				}
				if j < len(src) {
					j++ // base char
				}
				for j < len(src) && (isWordByte(src[j]) || src[j] == '?') {
					j++
				}
			}
			out = append(out, propTok{tokNumber, src[i:j], i})
			i = j
		default:
			for _, op := range []string{"|->", "==", "!=", "<=", ">=", "&&", "||"} {
				if strings.HasPrefix(src[i:], op) {
					out = append(out, propTok{tokOp, op, i})
					i += len(op)
					goto next
				}
			}
			out = append(out, propTok{tokOp, string(c), i})
			i++
		next:
		}
	}
	out = append(out, propTok{tokEOF, "", len(src)})
	return out
}

func isWordStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isWordByte(c byte) bool { return isWordStart(c) || c >= '0' && c <= '9' }

// ---- parser ----

type propParser struct {
	toks []propTok
	pos  int
	src  string
}

func (p *propParser) peek() propTok { return p.toks[p.pos] }

func (p *propParser) next() propTok {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *propParser) expectOp(op string) error {
	t := p.next()
	if t.kind != tokOp || t.text != op {
		return fmt.Errorf("props: expected %q at offset %d in %q, found %q", op, t.pos, p.src, t.text)
	}
	return nil
}

func (p *propParser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

func (p *propParser) parseImplication() (Expr, error) {
	lhs, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.acceptOp("|->") {
		rhs, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		return Implies(lhs, rhs), nil
	}
	return lhs, nil
}

func (p *propParser) parseOr() (Expr, error) {
	lhs, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptOp("||") {
		rhs, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		lhs = Or(lhs, rhs)
	}
	return lhs, nil
}

func (p *propParser) parseAnd() (Expr, error) {
	lhs, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.acceptOp("&&") {
		rhs, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		lhs = And(lhs, rhs)
	}
	return lhs, nil
}

func (p *propParser) parseCmp() (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp {
		var mk func(a, b Expr) Expr
		switch t.text {
		case "==":
			mk = Eq
		case "!=":
			mk = Ne
		case "<":
			mk = Lt
		case "<=":
			mk = Le
		case ">":
			mk = func(a, b Expr) Expr { return Lt(b, a) }
		case ">=":
			mk = func(a, b Expr) Expr { return Le(b, a) }
		}
		if mk != nil {
			p.pos++
			rhs, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return mk(lhs, rhs), nil
		}
	}
	return lhs, nil
}

func (p *propParser) parseUnary() (Expr, error) {
	if p.acceptOp("!") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(e), nil
	}
	if p.acceptOp("|") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return RedOr(e), nil
	}
	return p.parsePrimary()
}

func (p *propParser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokOp:
		if t.text == "(" {
			e, err := p.parseImplication()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, fmt.Errorf("props: unexpected %q at offset %d in %q", t.text, t.pos, p.src)
	case tokNumber:
		v, err := parsePropNumber(t.text)
		if err != nil {
			return nil, fmt.Errorf("props: %w in %q", err, p.src)
		}
		return Const(v), nil
	case tokSys:
		return p.parseSysCall(t)
	case tokIdent:
		var e Expr = Sig(t.text)
		return p.parseSelects(e)
	}
	return nil, fmt.Errorf("props: unexpected end of expression in %q", p.src)
}

// parseSelects handles trailing [i] and [hi:lo] on an expression.
func (p *propParser) parseSelects(e Expr) (Expr, error) {
	for p.acceptOp("[") {
		hiTok := p.next()
		hi, err := strconv.Atoi(hiTok.text)
		if err != nil {
			return nil, fmt.Errorf("props: bit index %q must be a plain integer", hiTok.text)
		}
		lo := hi
		if p.acceptOp(":") {
			loTok := p.next()
			lo, err = strconv.Atoi(loTok.text)
			if err != nil {
				return nil, fmt.Errorf("props: bit index %q must be a plain integer", loTok.text)
			}
		}
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
		if hi < lo || hi >= maxPropWidth {
			return nil, fmt.Errorf("props: bit select [%d:%d] needs lo <= hi < %d", hi, lo, maxPropWidth)
		}
		e = Slice(e, hi, lo)
	}
	return e, nil
}

func (p *propParser) parseSysCall(t propTok) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	switch t.text {
	case "$past":
		sig := p.next()
		if sig.kind != tokIdent {
			return nil, fmt.Errorf("props: $past needs a signal name, found %q", sig.text)
		}
		n := 1
		if p.acceptOp(",") {
			nt := p.next()
			var err error
			n, err = strconv.Atoi(nt.text)
			if err != nil || n > maxPastDepth {
				return nil, fmt.Errorf("props: $past depth %q invalid (at most %d)", nt.text, maxPastDepth)
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return Past(sig.text, n), nil
	case "$stable":
		sig := p.next()
		if sig.kind != tokIdent {
			return nil, fmt.Errorf("props: $stable needs a signal name, found %q", sig.text)
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return Stable(sig.text), nil
	case "$isunknown":
		e, err := p.parseImplication()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return IsUnknown(e), nil
	case "$isinside":
		subj, err := p.parseImplication()
		if err != nil {
			return nil, err
		}
		var cands []Expr
		for p.acceptOp(",") {
			c, err := p.parseImplication()
			if err != nil {
				return nil, err
			}
			cands = append(cands, c)
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("props: $isinside needs candidates")
		}
		return IsInside(subj, cands...), nil
	}
	return nil, fmt.Errorf("props: unknown system function %q", t.text)
}

// parsePropNumber decodes "42", "8'hFF", "4'b10xz", "3'd5".
func parsePropNumber(text string) (logic.BV, error) {
	text = strings.ReplaceAll(text, "_", "")
	ap := strings.IndexByte(text, '\'')
	if ap < 0 {
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return logic.BV{}, fmt.Errorf("invalid literal %q", text)
		}
		return logic.FromUint64(64, v), nil
	}
	width, err := strconv.Atoi(text[:ap])
	if err != nil || width <= 0 || width >= maxPropWidth || len(text) > maxPropWidth {
		return logic.BV{}, fmt.Errorf("invalid literal size in %q", text)
	}
	rest := text[ap+1:]
	if rest != "" && (rest[0] == 's' || rest[0] == 'S') {
		rest = rest[1:]
	}
	if rest == "" {
		return logic.BV{}, fmt.Errorf("missing base in %q", text)
	}
	base, digits := rest[0], rest[1:]
	var bits string
	switch base {
	case 'b', 'B':
		bits = digits
	case 'h', 'H':
		for i := 0; i < len(digits); i++ {
			d := digits[i]
			switch {
			case d == 'x' || d == 'X':
				bits += "xxxx"
			case d == 'z' || d == 'Z':
				bits += "zzzz"
			default:
				v, err := strconv.ParseUint(string(d), 16, 8)
				if err != nil {
					return logic.BV{}, fmt.Errorf("invalid hex digit %q in %q", d, text)
				}
				bits += fmt.Sprintf("%04b", v)
			}
		}
	case 'd', 'D':
		v, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return logic.BV{}, fmt.Errorf("invalid decimal %q", text)
		}
		return logic.FromUint64(width, v), nil
	default:
		return logic.BV{}, fmt.Errorf("unsupported base %q in %q", base, text)
	}
	v, err := logic.FromString(bits)
	if err != nil {
		return logic.BV{}, fmt.Errorf("invalid bits in %q: %w", text, err)
	}
	if v.Width() > width {
		return v.Extract(width-1, 0), nil
	}
	return v.Resize(width), nil
}
