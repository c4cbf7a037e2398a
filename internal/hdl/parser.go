package hdl

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser turns HDL source text into an AST.
type Parser struct {
	lex  *Lexer
	buf  []Token // lookahead buffer
	errs []error
}

// Parse parses a full compilation unit.
func Parse(src string) (*Source, error) {
	p := &Parser{lex: NewLexer(src)}
	out := &Source{}
	for {
		t, err := p.peek(0)
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			break
		}
		if t.Kind != KWMODULE {
			return nil, fmt.Errorf("%v: expected module, found %s", t.Pos, t.Kind)
		}
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		out.Modules = append(out.Modules, m)
	}
	return out, nil
}

// MustParse parses src and panics on error; for built-in design sources.
func MustParse(src string) *Source {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

func (p *Parser) peek(n int) (Token, error) {
	for len(p.buf) <= n {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.buf = append(p.buf, t)
	}
	return p.buf[n], nil
}

func (p *Parser) next() (Token, error) {
	t, err := p.peek(0)
	if err != nil {
		return Token{}, err
	}
	p.buf = p.buf[1:]
	return t, nil
}

func (p *Parser) expect(k Kind) (Token, error) {
	t, err := p.next()
	if err != nil {
		return Token{}, err
	}
	if t.Kind != k {
		return Token{}, fmt.Errorf("%v: expected %s, found %s %q", t.Pos, k, t.Kind, t.Text)
	}
	return t, nil
}

func (p *Parser) accept(k Kind) (Token, bool, error) {
	t, err := p.peek(0)
	if err != nil {
		return Token{}, false, err
	}
	if t.Kind == k {
		_, _ = p.next()
		return t, true, nil
	}
	return Token{}, false, nil
}

// ---- module ----

func (p *Parser) parseModule() (*Module, error) {
	kw, err := p.expect(KWMODULE)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	m := &Module{Pos: kw.Pos, Name: name.Text}

	// Optional parameter port list: #(parameter N = 8, ...)
	if _, ok, err := p.accept(HASH); err != nil {
		return nil, err
	} else if ok {
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		for {
			if _, ok, err := p.accept(KWPARAMETER); err != nil {
				return nil, err
			} else if !ok {
				// allow bare "name = value" continuation
			}
			p.skipOptionalTypeWords()
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(ASSIGN); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, Param{Pos: id.Pos, Name: id.Text, Value: val})
			if _, ok, err := p.accept(COMMA); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
	}

	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	if err := p.parsePortList(m); err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}

	for {
		t, err := p.peek(0)
		if err != nil {
			return nil, err
		}
		if t.Kind == KWENDMODULE {
			_, _ = p.next()
			return m, nil
		}
		if t.Kind == EOF {
			return nil, fmt.Errorf("%v: unexpected EOF inside module %s", t.Pos, m.Name)
		}
		if err := p.parseModuleItem(m); err != nil {
			return nil, err
		}
	}
}

// skipOptionalTypeWords consumes logic/wire/reg/int type keywords that may
// precede a parameter or port name.
func (p *Parser) skipOptionalTypeWords() {
	for {
		t, err := p.peek(0)
		if err != nil {
			return
		}
		if t.Kind == KWLOGIC || t.Kind == KWWIRE || t.Kind == KWREG || t.Kind == KWINT {
			_, _ = p.next()
			continue
		}
		return
	}
}

func (p *Parser) parsePortList(m *Module) error {
	// Empty port list.
	if _, ok, err := p.accept(RPAREN); err != nil || ok {
		return err
	}
	cur := Port{Dir: Input}
	for {
		t, err := p.peek(0)
		if err != nil {
			return err
		}
		switch t.Kind {
		case KWINPUT, KWOUTPUT, KWINOUT:
			_, _ = p.next()
			cur = Port{Pos: t.Pos}
			switch t.Kind {
			case KWINPUT:
				cur.Dir = Input
			case KWOUTPUT:
				cur.Dir = Output
			default:
				cur.Dir = Inout
			}
			// optional reg/logic/wire
			for {
				tt, err := p.peek(0)
				if err != nil {
					return err
				}
				if tt.Kind == KWREG || tt.Kind == KWLOGIC || tt.Kind == KWWIRE {
					_, _ = p.next()
					cur.Reg = tt.Kind != KWWIRE
					continue
				}
				break
			}
			cur.Type = TypeRef{}
			if tt, err := p.peek(0); err != nil {
				return err
			} else if tt.Kind == LBRACK {
				rng, err := p.parseRange()
				if err != nil {
					return err
				}
				cur.Type = rng
			}
		}
		id, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		port := cur
		port.Pos = id.Pos
		port.Name = id.Text
		m.Ports = append(m.Ports, port)
		if _, ok, err := p.accept(COMMA); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	_, err := p.expect(RPAREN)
	return err
}

func (p *Parser) parseRange() (TypeRef, error) {
	if _, err := p.expect(LBRACK); err != nil {
		return TypeRef{}, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return TypeRef{}, err
	}
	if _, err := p.expect(COLON); err != nil {
		return TypeRef{}, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return TypeRef{}, err
	}
	if _, err := p.expect(RBRACK); err != nil {
		return TypeRef{}, err
	}
	return TypeRef{HasRng: true, Hi: hi, Lo: lo}, nil
}

func (p *Parser) parseModuleItem(m *Module) error {
	t, err := p.peek(0)
	if err != nil {
		return err
	}
	switch t.Kind {
	case KWTYPEDEF:
		return p.parseTypedef(m)
	case KWPARAMETER, KWLOCALPARAM:
		return p.parseParamDecl(m)
	case KWWIRE, KWREG, KWLOGIC, KWINT:
		return p.parseNetDecl(m, TypeRef{}, t.Pos)
	case KWASSIGN:
		_, _ = p.next()
		lhs, err := p.parseLValue()
		if err != nil {
			return err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return err
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
		m.Assigns = append(m.Assigns, ContAssign{Pos: t.Pos, LHS: lhs, RHS: rhs})
		return nil
	case KWALWAYSCOMB, KWALWAYSFF, KWALWAYS:
		return p.parseAlways(m)
	case KWGENERATE:
		_, _ = p.next() // transparent generate region
		return nil
	case KWENDGENERATE:
		_, _ = p.next()
		return nil
	case IDENT:
		// Either an enum-typed net declaration or a module instantiation.
		t1, err := p.peek(1)
		if err != nil {
			return err
		}
		if t1.Kind == HASH {
			return p.parseInstance(m)
		}
		if t1.Kind == IDENT {
			t2, err := p.peek(2)
			if err != nil {
				return err
			}
			if t2.Kind == LPAREN {
				return p.parseInstance(m)
			}
			// enum-typed net decl: EnumName varName ;
			_, _ = p.next()
			return p.parseNetTail(m, TypeRef{Enum: t.Text}, t.Pos)
		}
		return fmt.Errorf("%v: unexpected identifier %q at module level", t.Pos, t.Text)
	case SEMI:
		_, _ = p.next()
		return nil
	default:
		return fmt.Errorf("%v: unexpected %s %q at module level", t.Pos, t.Kind, t.Text)
	}
}

func (p *Parser) parseTypedef(m *Module) error {
	kw, _ := p.next() // typedef
	if _, err := p.expect(KWENUM); err != nil {
		return err
	}
	def := EnumDef{Pos: kw.Pos}
	// optional base type: logic [w:0]
	p.skipOptionalTypeWords()
	if t, err := p.peek(0); err != nil {
		return err
	} else if t.Kind == LBRACK {
		rng, err := p.parseRange()
		if err != nil {
			return err
		}
		def.HasRng, def.Hi, def.Lo = true, rng.Hi, rng.Lo
	}
	if _, err := p.expect(LBRACE); err != nil {
		return err
	}
	for {
		id, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		mem := EnumMember{Name: id.Text}
		if _, ok, err := p.accept(ASSIGN); err != nil {
			return err
		} else if ok {
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			mem.Value = v
		}
		def.Members = append(def.Members, mem)
		if _, ok, err := p.accept(COMMA); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	if _, err := p.expect(RBRACE); err != nil {
		return err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return err
	}
	def.Name = name.Text
	if _, err := p.expect(SEMI); err != nil {
		return err
	}
	m.Enums = append(m.Enums, def)
	return nil
}

func (p *Parser) parseParamDecl(m *Module) error {
	kw, _ := p.next()
	local := kw.Kind == KWLOCALPARAM
	p.skipOptionalTypeWords()
	if t, err := p.peek(0); err != nil {
		return err
	} else if t.Kind == LBRACK {
		if _, err := p.parseRange(); err != nil { // declared width is informational
			return err
		}
	}
	for {
		id, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return err
		}
		val, err := p.parseExpr()
		if err != nil {
			return err
		}
		m.Params = append(m.Params, Param{Pos: id.Pos, Name: id.Text, Value: val, Local: local})
		if _, ok, err := p.accept(COMMA); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	_, err := p.expect(SEMI)
	return err
}

func (p *Parser) parseNetDecl(m *Module, _ TypeRef, pos Pos) error {
	p.skipOptionalTypeWords()
	typ := TypeRef{}
	if t, err := p.peek(0); err != nil {
		return err
	} else if t.Kind == LBRACK {
		rng, err := p.parseRange()
		if err != nil {
			return err
		}
		typ = rng
	}
	return p.parseNetTail(m, typ, pos)
}

func (p *Parser) parseNetTail(m *Module, typ TypeRef, pos Pos) error {
	for {
		id, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		net := Net{Pos: pos, Name: id.Text, Type: typ}
		// optional unpacked array: name [0:N-1]
		if t, err := p.peek(0); err != nil {
			return err
		} else if t.Kind == LBRACK {
			rng, err := p.parseRange()
			if err != nil {
				return err
			}
			net.AHi, net.ALo = rng.Hi, rng.Lo
		}
		if _, ok, err := p.accept(ASSIGN); err != nil {
			return err
		} else if ok {
			init, err := p.parseExpr()
			if err != nil {
				return err
			}
			net.Init = init
		}
		m.Nets = append(m.Nets, net)
		if _, ok, err := p.accept(COMMA); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	_, err := p.expect(SEMI)
	return err
}

func (p *Parser) parseAlways(m *Module) error {
	kw, _ := p.next()
	a := Always{Pos: kw.Pos}
	switch kw.Kind {
	case KWALWAYSCOMB:
		a.Kind = Comb
	case KWALWAYSFF, KWALWAYS:
		// always requires @(...); always_ff requires edge events.
		if _, err := p.expect(AT); err != nil {
			return err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		if t, err := p.peek(0); err != nil {
			return err
		} else if t.Kind == STAR {
			_, _ = p.next()
			a.Kind = Comb
		} else {
			a.Kind = Seq
			for {
				ev := Event{}
				t, err := p.peek(0)
				if err != nil {
					return err
				}
				switch t.Kind {
				case KWPOSEDGE:
					_, _ = p.next()
					ev.Edge = Posedge
				case KWNEGEDGE:
					_, _ = p.next()
					ev.Edge = Negedge
				}
				id, err := p.expect(IDENT)
				if err != nil {
					return err
				}
				ev.Signal = id.Text
				a.Events = append(a.Events, ev)
				t, err = p.peek(0)
				if err != nil {
					return err
				}
				if t.Kind == KWOREVENT || t.Kind == COMMA {
					_, _ = p.next()
					continue
				}
				break
			}
			// Pure-edge sensitivity without posedge/negedge degrades to comb.
			allAny := true
			for _, ev := range a.Events {
				if ev.Edge != AnyChange {
					allAny = false
				}
			}
			if allAny {
				a.Kind = Comb
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return err
		}
	}
	body, err := p.parseStmt()
	if err != nil {
		return err
	}
	if b, ok := body.(*Block); ok {
		a.Label = b.Label
	}
	a.Body = body
	m.Alwayses = append(m.Alwayses, a)
	return nil
}

func (p *Parser) parseInstance(m *Module) error {
	mod, err := p.expect(IDENT)
	if err != nil {
		return err
	}
	inst := Instance{Pos: mod.Pos, ModuleName: mod.Text}
	if _, ok, err := p.accept(HASH); err != nil {
		return err
	} else if ok {
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		conns, err := p.parseConnList()
		if err != nil {
			return err
		}
		inst.Params = conns
		if _, err := p.expect(RPAREN); err != nil {
			return err
		}
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return err
	}
	inst.Name = name.Text
	if _, err := p.expect(LPAREN); err != nil {
		return err
	}
	conns, err := p.parseConnList()
	if err != nil {
		return err
	}
	inst.Conns = conns
	if _, err := p.expect(RPAREN); err != nil {
		return err
	}
	if _, err := p.expect(SEMI); err != nil {
		return err
	}
	m.Instances = append(m.Instances, inst)
	return nil
}

func (p *Parser) parseConnList() ([]PortConn, error) {
	var out []PortConn
	if t, err := p.peek(0); err != nil {
		return nil, err
	} else if t.Kind == RPAREN {
		return out, nil
	}
	for {
		t, err := p.peek(0)
		if err != nil {
			return nil, err
		}
		if t.Kind == DOT {
			_, _ = p.next()
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			conn := PortConn{Name: id.Text}
			if t, err := p.peek(0); err != nil {
				return nil, err
			} else if t.Kind != RPAREN {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				conn.Expr = e
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			out = append(out, conn)
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out = append(out, PortConn{Expr: e})
		}
		if _, ok, err := p.accept(COMMA); err != nil {
			return nil, err
		} else if !ok {
			return out, nil
		}
	}
}

// ---- statements ----

func (p *Parser) parseStmt() (Stmt, error) {
	t, err := p.peek(0)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case KWBEGIN:
		_, _ = p.next()
		blk := &Block{stmtBase: stmtBase{Pos: t.Pos}}
		if _, ok, err := p.accept(COLON); err != nil {
			return nil, err
		} else if ok {
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			blk.Label = id.Text
		}
		for {
			tt, err := p.peek(0)
			if err != nil {
				return nil, err
			}
			if tt.Kind == KWEND {
				_, _ = p.next()
				// optional ": label"
				if _, ok, err := p.accept(COLON); err != nil {
					return nil, err
				} else if ok {
					if _, err := p.expect(IDENT); err != nil {
						return nil, err
					}
				}
				return blk, nil
			}
			if tt.Kind == EOF {
				return nil, fmt.Errorf("%v: unexpected EOF in begin block", tt.Pos)
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			blk.Stmts = append(blk.Stmts, s)
		}
	case KWIF:
		_, _ = p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		node := &If{stmtBase: stmtBase{Pos: t.Pos}, Cond: cond, Then: then}
		if _, ok, err := p.accept(KWELSE); err != nil {
			return nil, err
		} else if ok {
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
		return node, nil
	case KWUNIQUE, KWCASE:
		unique := false
		if t.Kind == KWUNIQUE {
			_, _ = p.next()
			unique = true
		}
		ct, err := p.expect(KWCASE)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		subj, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		node := &Case{stmtBase: stmtBase{Pos: ct.Pos}, Subject: subj, Unique: unique}
		for {
			tt, err := p.peek(0)
			if err != nil {
				return nil, err
			}
			if tt.Kind == KWENDCASE {
				_, _ = p.next()
				return node, nil
			}
			if tt.Kind == KWDEFAULT {
				_, _ = p.next()
				if _, ok, err := p.accept(COLON); err != nil {
					return nil, err
				} else if !ok {
					// "default ;" without colon
				}
				body, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				node.Items = append(node.Items, CaseItem{Body: body})
				continue
			}
			var matches []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				matches = append(matches, e)
				if _, ok, err := p.accept(COMMA); err != nil {
					return nil, err
				} else if !ok {
					break
				}
			}
			if _, err := p.expect(COLON); err != nil {
				return nil, err
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			node.Items = append(node.Items, CaseItem{Matches: matches, Body: body})
		}
	case KWFOR:
		_, _ = p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		p.skipOptionalTypeWords()
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		// step: i++ or i = i + 1 (the unrolled value is recomputed from
		// the bounds so the parsed step is only validated, not stored).
		if _, err := p.expect(IDENT); err != nil {
			return nil, err
		}
		if _, ok, err := p.accept(INC); err != nil {
			return nil, err
		} else if !ok {
			if _, err := p.expect(ASSIGN); err != nil {
				return nil, err
			}
			if _, err := p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &For{stmtBase: stmtBase{Pos: t.Pos}, Var: id.Text, Init: init, Cond: cond, Body: body}, nil
	case SEMI:
		_, _ = p.next()
		return &NullStmt{stmtBase: stmtBase{Pos: t.Pos}}, nil
	case SYSTASK:
		_, _ = p.next()
		// Skip the optional argument list with balanced parentheses.
		if tt, err := p.peek(0); err != nil {
			return nil, err
		} else if tt.Kind == LPAREN {
			depth := 0
			for {
				tok, err := p.next()
				if err != nil {
					return nil, err
				}
				if tok.Kind == LPAREN {
					depth++
				}
				if tok.Kind == RPAREN {
					depth--
					if depth == 0 {
						break
					}
				}
				if tok.Kind == EOF {
					return nil, fmt.Errorf("%v: unterminated system task arguments", tok.Pos)
				}
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &NullStmt{stmtBase: stmtBase{Pos: t.Pos}, Task: t.Text}, nil
	default:
		// assignment statement
		lhs, err := p.parseLValue()
		if err != nil {
			return nil, err
		}
		op, err := p.next()
		if err != nil {
			return nil, err
		}
		var nonBlocking bool
		switch op.Kind {
		case ASSIGN:
		case LE:
			nonBlocking = true
		default:
			return nil, fmt.Errorf("%v: expected = or <= after lvalue, found %s", op.Pos, op.Kind)
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &AssignStmt{stmtBase: stmtBase{Pos: t.Pos}, LHS: lhs, RHS: rhs, NonBlocking: nonBlocking}, nil
	}
}

// parseLValue parses an assignment target: identifier with optional
// selects, or a concatenation of lvalues.
func (p *Parser) parseLValue() (Expr, error) {
	t, err := p.peek(0)
	if err != nil {
		return nil, err
	}
	if t.Kind == LBRACE {
		_, _ = p.next()
		var parts []Expr
		for {
			e, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
			if _, ok, err := p.accept(COMMA); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if _, err := p.expect(RBRACE); err != nil {
			return nil, err
		}
		return &Concat{exprBase: exprBase{Pos: t.Pos}, Parts: parts}, nil
	}
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	var e Expr = &Ident{exprBase: exprBase{Pos: id.Pos}, Name: id.Text}
	return p.parseSelects(e)
}

// parseSelects parses trailing [i], [hi:lo], [i +: w] selects.
func (p *Parser) parseSelects(base Expr) (Expr, error) {
	for {
		t, err := p.peek(0)
		if err != nil {
			return nil, err
		}
		if t.Kind != LBRACK {
			return base, nil
		}
		_, _ = p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sep, err := p.next()
		if err != nil {
			return nil, err
		}
		switch sep.Kind {
		case RBRACK:
			base = &IndexExpr{exprBase: exprBase{Pos: t.Pos}, Base: base, Index: first}
		case COLON:
			lo, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			base = &RangeExpr{exprBase: exprBase{Pos: t.Pos}, Base: base, Hi: first, Lo: lo}
		case PLUSCOL:
			w, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			base = &RangeExpr{exprBase: exprBase{Pos: t.Pos}, Base: base, Hi: first, Lo: w, IsPlus: true}
		default:
			return nil, fmt.Errorf("%v: expected ], : or +: in select, found %s", sep.Pos, sep.Kind)
		}
	}
}

// ---- expressions (precedence climbing) ----

// parseExpr parses a full expression including the ternary operator.
func (p *Parser) parseExpr() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if t, err := p.peek(0); err != nil {
		return nil, err
	} else if t.Kind == QUESTION {
		_, _ = p.next()
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(COLON); err != nil {
			return nil, err
		}
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Ternary{exprBase: exprBase{Pos: t.Pos}, Cond: cond, Then: then, Else: els}, nil
	}
	return cond, nil
}

// binary operator precedence levels, loosest first.
var binLevels = [][]Kind{
	{LOR},
	{LAND},
	{OR},
	{XOR, XNOR},
	{AND},
	{EQ, NEQ, CASEEQ, CASENEQ},
	{LT, GT, LE, GE},
	{SHL, SHR, ASHR},
	{PLUS, MINUS},
	{STAR, SLASH, PERCENT},
}

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.peek(0)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, k := range binLevels[level] {
			if t.Kind == k {
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
		_, _ = p.next()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t, err := p.peek(0)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case TILDE, BANG, MINUS, PLUS, AND, OR, XOR, NAND, NOR, XNOR:
		_, _ = p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t, err := p.peek(0)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case NUMBER:
		_, _ = p.next()
		return parseNumberToken(t)
	case IDENT:
		_, _ = p.next()
		var e Expr = &Ident{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}
		return p.parseSelects(e)
	case LPAREN:
		_, _ = p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return p.parseSelects(e)
	case LBRACE:
		_, _ = p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// Replication {N{v}} or concat {a, b, ...}.
		if tt, err := p.peek(0); err != nil {
			return nil, err
		} else if tt.Kind == LBRACE {
			_, _ = p.next()
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACE); err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACE); err != nil {
				return nil, err
			}
			return &Repl{exprBase: exprBase{Pos: t.Pos}, Count: first, Value: val}, nil
		}
		parts := []Expr{first}
		for {
			if _, ok, err := p.accept(COMMA); err != nil {
				return nil, err
			} else if !ok {
				break
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
		}
		if _, err := p.expect(RBRACE); err != nil {
			return nil, err
		}
		return &Concat{exprBase: exprBase{Pos: t.Pos}, Parts: parts}, nil
	}
	return nil, fmt.Errorf("%v: unexpected %s %q in expression", t.Pos, t.Kind, t.Text)
}

// MaxWidth bounds the bit width of a sized literal, and the elaborator
// bounds signal and memory-word widths by it, so that a hostile width
// in user RTL fails with an error instead of exhausting memory.
const MaxWidth = 1 << 16

// parseNumberToken converts a NUMBER token into a Number node with the
// bit pattern expanded MSB-first.
func parseNumberToken(t Token) (*Number, error) {
	text := strings.ReplaceAll(t.Text, "_", "")
	n := &Number{exprBase: exprBase{Pos: t.Pos}, Raw: t.Text}
	ap := strings.IndexByte(text, '\'')
	if ap < 0 {
		// Unsized decimal.
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%v: invalid decimal literal %q", t.Pos, t.Text)
		}
		n.Bits = strconv.FormatUint(v, 2)
		n.Width = 0
		return n, nil
	}
	sizeStr := text[:ap]
	rest := text[ap+1:]
	if len(rest) > 0 && (rest[0] == 's' || rest[0] == 'S') {
		rest = rest[1:]
	}
	if len(rest) == 1 && sizeStr == "" {
		// Fill literal '0 '1 'x 'z.
		switch rest[0] {
		case '0', '1':
			n.Bits = string(rest[0])
		case 'x', 'X':
			n.Bits = "x"
		case 'z', 'Z':
			n.Bits = "z"
		default:
			return nil, fmt.Errorf("%v: invalid fill literal %q", t.Pos, t.Text)
		}
		n.IsFill = true
		n.Width = 0
		return n, nil
	}
	if rest == "" {
		return nil, fmt.Errorf("%v: malformed literal %q", t.Pos, t.Text)
	}
	base := rest[0]
	digits := rest[1:]
	width := 0
	if sizeStr != "" {
		w, err := strconv.Atoi(sizeStr)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("%v: invalid literal size %q", t.Pos, t.Text)
		}
		if w > MaxWidth {
			return nil, fmt.Errorf("%v: literal size %d exceeds %d bits in %q", t.Pos, w, MaxWidth, t.Text)
		}
		width = w
	}
	var bits strings.Builder
	expand := func(d byte, per int) error {
		var s string
		switch {
		case d == 'x' || d == 'X':
			s = strings.Repeat("x", per)
		case d == 'z' || d == 'Z' || d == '?':
			s = strings.Repeat("z", per)
		default:
			v, err := strconv.ParseUint(string(d), 16, 8)
			if err != nil || v >= uint64(1)<<uint(per) {
				return fmt.Errorf("%v: invalid digit %q in literal %q", t.Pos, d, t.Text)
			}
			for i := per - 1; i >= 0; i-- {
				if v>>uint(i)&1 == 1 {
					s += "1"
				} else {
					s += "0"
				}
			}
		}
		bits.WriteString(s)
		return nil
	}
	switch base {
	case 'b', 'B':
		for i := 0; i < len(digits); i++ {
			if err := expand(digits[i], 1); err != nil {
				return nil, err
			}
		}
	case 'o', 'O':
		for i := 0; i < len(digits); i++ {
			if err := expand(digits[i], 3); err != nil {
				return nil, err
			}
		}
	case 'h', 'H':
		for i := 0; i < len(digits); i++ {
			if err := expand(digits[i], 4); err != nil {
				return nil, err
			}
		}
	case 'd', 'D':
		v, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%v: invalid decimal digits in %q", t.Pos, t.Text)
		}
		bits.WriteString(strconv.FormatUint(v, 2))
	default:
		return nil, fmt.Errorf("%v: invalid base %q in literal %q", t.Pos, base, t.Text)
	}
	bs := bits.String()
	if width > 0 {
		if len(bs) > width {
			bs = bs[len(bs)-width:] // truncate from the left
		} else if len(bs) < width {
			// Extend with 0, or with x/z when the MSB is x/z.
			pad := "0"
			if len(bs) > 0 && (bs[0] == 'x' || bs[0] == 'z') {
				pad = string(bs[0])
			}
			bs = strings.Repeat(pad, width-len(bs)) + bs
		}
	}
	n.Bits = bs
	n.Width = width
	return n, nil
}
