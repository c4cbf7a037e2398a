package elab

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/hdl"
	"repro/internal/logic"
)

// maxLoopIterations bounds for-loop unrolling.
const maxLoopIterations = 1 << 16

// maxDesignBits bounds a design's state: the summed widths of its
// signals plus the bits of its memories. With hdl.MaxWidth on every
// declared width, it keeps hostile RTL from exhausting memory when the
// design is elaborated or simulated.
const maxDesignBits = 1 << 26

// maxInstances bounds the module instances a design flattens into.
const maxInstances = 1 << 14

// Elaborate flattens the design rooted at the module named top,
// resolving parameters (with optional numeric overrides for the top
// module), enums, hierarchy and for-loops, and compiling all behaviour
// into the executable IR.
func Elaborate(src *hdl.Source, top string, overrides map[string]uint64) (*Design, error) {
	mod := src.FindModule(top)
	if mod == nil {
		return nil, fmt.Errorf("elab: top module %q not found", top)
	}
	e := &elaborator{
		src:    src,
		d:      &Design{Name: top, Top: top, ByName: map[string]*Signal{}},
		active: map[string]bool{},
	}
	ov := map[string]logic.BV{}
	for k, v := range overrides {
		ov[k] = logic.FromUint64(64, v)
	}
	if err := e.instantiate(mod, "", ov, true); err != nil {
		return nil, err
	}
	e.markRegisters()
	return e.d, nil
}

type elaborator struct {
	src *hdl.Source
	d   *Design
	// bits sums the state declared so far (see maxDesignBits).
	bits int
	// instances counts the module instances flattened so far, and
	// active marks the modules on the instantiation stack, so that a
	// module instantiating itself is an error instead of a recursion
	// without end.
	instances int
	active    map[string]bool
	// curProc is the index of the process whose body is being compiled,
	// recorded into BranchInfo for diagnostics.
	curProc int
}

// scope is the per-instance name environment.
type scope struct {
	prefix  string
	params  map[string]logic.BV // parameters, enum members, loop vars
	enumW   map[string]int      // enum type name -> width
	signals map[string]*Signal
	mems    map[string]*Memory
	modName string
}

func (s *scope) hname(local string) string {
	if s.prefix == "" {
		return local
	}
	return s.prefix + "." + local
}

func (e *elaborator) newSignal(sc *scope, local string, width int, kind SignalKind, pos hdl.Pos) (*Signal, error) {
	name := sc.hname(local)
	if _, dup := e.d.ByName[name]; dup {
		return nil, fmt.Errorf("elab: duplicate signal %q", name)
	}
	if width <= 0 {
		return nil, fmt.Errorf("elab: signal %q has non-positive width %d", name, width)
	}
	if err := e.addBits(name, width); err != nil {
		return nil, err
	}
	sig := &Signal{Index: len(e.d.Signals), Name: name, Width: width, Kind: kind, Pos: pos}
	e.d.Signals = append(e.d.Signals, sig)
	e.d.ByName[name] = sig
	sc.signals[local] = sig
	return sig, nil
}

// instantiate elaborates one module instance under the given prefix.
func (e *elaborator) instantiate(mod *hdl.Module, prefix string, paramOverrides map[string]logic.BV, isTop bool) error {
	if e.active[mod.Name] {
		return fmt.Errorf("elab: module %q is instantiated inside itself (as %s)", mod.Name, prefix)
	}
	if e.instances++; e.instances > maxInstances {
		return fmt.Errorf("elab: more than %d module instances", maxInstances)
	}
	e.active[mod.Name] = true
	defer delete(e.active, mod.Name)
	sc := &scope{
		prefix:  prefix,
		params:  map[string]logic.BV{},
		enumW:   map[string]int{},
		signals: map[string]*Signal{},
		mems:    map[string]*Memory{},
		modName: mod.Name,
	}

	// 1. Parameters.
	for _, p := range mod.Params {
		if ov, ok := paramOverrides[p.Name]; ok && !p.Local {
			sc.params[p.Name] = ov
			continue
		}
		v, err := e.constEval(sc, p.Value)
		if err != nil {
			return fmt.Errorf("elab: parameter %s.%s: %w", mod.Name, p.Name, err)
		}
		sc.params[p.Name] = v
	}

	// 2. Enums.
	for _, en := range mod.Enums {
		next := uint64(0)
		maxV := uint64(0)
		vals := make([]uint64, len(en.Members))
		for i, m := range en.Members {
			if m.Value != nil {
				v, err := e.constEval(sc, m.Value)
				if err != nil {
					return fmt.Errorf("elab: enum member %s: %w", m.Name, err)
				}
				u, ok := v.Uint64()
				if !ok {
					return fmt.Errorf("elab: enum member %s has non-constant value", m.Name)
				}
				next = u
			}
			vals[i] = next
			if next > maxV {
				maxV = next
			}
			next++
		}
		width := 1
		if en.HasRng {
			hi, err := e.constUint(sc, en.Hi)
			if err != nil {
				return err
			}
			lo, err := e.constUint(sc, en.Lo)
			if err != nil {
				return err
			}
			width = int(hi-lo) + 1
		} else if maxV > 0 {
			width = bits.Len64(maxV)
		}
		sc.enumW[en.Name] = width
		for i, m := range en.Members {
			if _, dup := sc.params[m.Name]; dup {
				return fmt.Errorf("elab: enum member %s redeclares a name", m.Name)
			}
			sc.params[m.Name] = logic.FromUint64(width, vals[i])
		}
	}

	// 3. Ports.
	for _, p := range mod.Ports {
		w, err := e.typeWidth(sc, p.Type)
		if err != nil {
			return fmt.Errorf("elab: port %s.%s: %w", mod.Name, p.Name, err)
		}
		kind := SigInternal
		if isTop {
			if p.Dir == hdl.Input {
				kind = SigInput
			} else if p.Dir == hdl.Output {
				kind = SigOutput
			} else {
				return fmt.Errorf("elab: inout port %s.%s unsupported", mod.Name, p.Name)
			}
		}
		if _, err := e.newSignal(sc, p.Name, w, kind, p.Pos); err != nil {
			return err
		}
	}

	// 4. Nets and memories.
	for _, n := range mod.Nets {
		w, err := e.typeWidth(sc, n.Type)
		if err != nil {
			return fmt.Errorf("elab: net %s.%s: %w", mod.Name, n.Name, err)
		}
		if n.AHi != nil {
			hi, err := e.constUint(sc, n.AHi)
			if err != nil {
				return err
			}
			lo, err := e.constUint(sc, n.ALo)
			if err != nil {
				return err
			}
			span := hi - lo
			if lo > hi {
				span = lo - hi
			}
			if span >= maxDesignBits {
				return fmt.Errorf("memory %s.%s: depth %d+1 out of range", mod.Name, n.Name, span)
			}
			depth := int(span) + 1
			if err := e.addBits(sc.hname(n.Name), w*depth); err != nil {
				return err
			}
			mem := &Memory{Index: len(e.d.Memories), Name: sc.hname(n.Name), Width: w, Depth: depth}
			e.d.Memories = append(e.d.Memories, mem)
			sc.mems[n.Name] = mem
			continue
		}
		sig, err := e.newSignal(sc, n.Name, w, SigInternal, n.Pos)
		if err != nil {
			return err
		}
		if en := n.Type.Enum; en != "" {
			sig.EnumTy = en
			sig.EnumNames = map[uint64]string{}
			for _, ed := range mod.Enums {
				if ed.Name != en {
					continue
				}
				for _, m := range ed.Members {
					if v, ok := sc.params[m.Name]; ok {
						if u, defined := v.Uint64(); defined {
							sig.EnumNames[u] = m.Name
						}
					}
				}
			}
		}
		if n.Init != nil {
			// Declaration initializer, applied once at time zero.
			v, err := e.constEval(sc, n.Init)
			if err != nil {
				return fmt.Errorf("elab: initializer for %s: %w", n.Name, err)
			}
			iv := v.Resize(sig.Width)
			sig.Init = &iv
		}
	}

	// 5. Continuous assigns.
	for i, a := range mod.Assigns {
		tgt, err := e.compileTarget(sc, a.LHS)
		if err != nil {
			return err
		}
		rhs, err := e.compileExpr(sc, a.RHS, tgt.TWidth())
		if err != nil {
			return err
		}
		stmt := SAssign{LHS: tgt, RHS: wrapWidth(rhs, tgt.TWidth()), Pos: a.Pos}
		proc := &Process{
			Index: len(e.d.Procs),
			Name:  fmt.Sprintf("%s.assign%d", sc.hname(mod.Name), i),
			Kind:  ProcComb,
			Body:  []Stmt{stmt},
		}
		finishProcess(proc)
		e.d.Procs = append(e.d.Procs, proc)
	}

	// 6. Always blocks.
	for i, a := range mod.Alwayses {
		label := a.Label
		if label == "" {
			label = fmt.Sprintf("always%d", i)
		}
		proc := &Process{
			Index: len(e.d.Procs),
			Name:  sc.hname(label),
		}
		switch a.Kind {
		case hdl.Comb:
			proc.Kind = ProcComb
		case hdl.Seq:
			proc.Kind = ProcSeq
			for _, ev := range a.Events {
				sig, ok := sc.signals[ev.Signal]
				if !ok {
					return fmt.Errorf("elab: %s: unknown clock signal %q", proc.Name, ev.Signal)
				}
				proc.Edges = append(proc.Edges, ClockEdge{Signal: sig.Index, Posedge: ev.Edge != hdl.Negedge})
			}
		}
		e.curProc = proc.Index
		body, err := e.compileStmt(sc, proc.Name, a.Body)
		if err != nil {
			return err
		}
		proc.Body = body
		finishProcess(proc)
		e.d.Procs = append(e.d.Procs, proc)
	}

	// 7. Child instances.
	for i := range mod.Instances {
		inst := &mod.Instances[i]
		child := e.src.FindModule(inst.ModuleName)
		if child == nil {
			return fmt.Errorf("elab: module %q instantiated as %s not found", inst.ModuleName, inst.Name)
		}
		childOverrides := map[string]logic.BV{}
		for i, pc := range inst.Params {
			name := pc.Name
			if name == "" {
				// positional parameter override
				var nonLocal []string
				for _, p := range child.Params {
					if !p.Local {
						nonLocal = append(nonLocal, p.Name)
					}
				}
				if i >= len(nonLocal) {
					return fmt.Errorf("elab: too many positional parameters for %s", inst.Name)
				}
				name = nonLocal[i]
			}
			v, err := e.constEval(sc, pc.Expr)
			if err != nil {
				return fmt.Errorf("elab: parameter override %s.%s: %w", inst.Name, name, err)
			}
			childOverrides[name] = v
		}
		childPrefix := inst.Name
		if prefix != "" {
			childPrefix = prefix + "." + inst.Name
		}
		if err := e.instantiate(child, childPrefix, childOverrides, false); err != nil {
			return err
		}
		if err := e.connectPorts(sc, child, childPrefix, inst); err != nil {
			return err
		}
	}
	return nil
}

// connectPorts wires an instance's formal ports to actual expressions in
// the parent scope by synthesizing continuous assignments.
func (e *elaborator) connectPorts(parent *scope, child *hdl.Module, childPrefix string, inst *hdl.Instance) error {
	for i, conn := range inst.Conns {
		var port *hdl.Port
		if conn.Name != "" {
			for j := range child.Ports {
				if child.Ports[j].Name == conn.Name {
					port = &child.Ports[j]
					break
				}
			}
			if port == nil {
				return fmt.Errorf("elab: instance %s has no port %q", inst.Name, conn.Name)
			}
		} else {
			if i >= len(child.Ports) {
				return fmt.Errorf("elab: too many positional connections on %s", inst.Name)
			}
			port = &child.Ports[i]
		}
		if conn.Expr == nil {
			continue // explicitly unconnected
		}
		formal := e.d.ByName[childPrefix+"."+port.Name]
		if formal == nil {
			return fmt.Errorf("elab: internal: formal %s.%s missing", childPrefix, port.Name)
		}
		var stmt Stmt
		if port.Dir == hdl.Input {
			rhs, err := e.compileExpr(parent, conn.Expr, formal.Width)
			if err != nil {
				return fmt.Errorf("elab: connection %s.%s: %w", inst.Name, port.Name, err)
			}
			stmt = SAssign{LHS: TSig{Idx: formal.Index, W: formal.Width}, RHS: wrapWidth(rhs, formal.Width)}
		} else {
			tgt, err := e.compileTarget(parent, conn.Expr)
			if err != nil {
				return fmt.Errorf("elab: output connection %s.%s must be assignable: %w", inst.Name, port.Name, err)
			}
			stmt = SAssign{LHS: tgt, RHS: wrapWidth(Sig{Idx: formal.Index, W: formal.Width}, tgt.TWidth())}
		}
		proc := &Process{
			Index: len(e.d.Procs),
			Name:  fmt.Sprintf("%s.conn.%s", childPrefix, port.Name),
			Kind:  ProcComb,
			Body:  []Stmt{stmt},
		}
		finishProcess(proc)
		e.d.Procs = append(e.d.Procs, proc)
	}
	return nil
}

// markRegisters flags signals written by sequential processes.
func (e *elaborator) markRegisters() {
	for _, p := range e.d.Procs {
		if p.Kind != ProcSeq {
			continue
		}
		for _, w := range p.Writes {
			e.d.Signals[w].IsReg = true
		}
	}
}

// addBits charges n bits of state declared by name against
// maxDesignBits.
func (e *elaborator) addBits(name string, n int) error {
	e.bits += n
	if e.bits > maxDesignBits {
		return fmt.Errorf("elab: %q brings the design to %d state bits, over the %d-bit limit", name, e.bits, maxDesignBits)
	}
	return nil
}

// typeWidth resolves a TypeRef to a bit width.
func (e *elaborator) typeWidth(sc *scope, t hdl.TypeRef) (int, error) {
	if t.Enum != "" {
		w, ok := sc.enumW[t.Enum]
		if !ok {
			return 0, fmt.Errorf("unknown type %q", t.Enum)
		}
		return w, nil
	}
	if !t.HasRng {
		return 1, nil
	}
	hi, err := e.constUint(sc, t.Hi)
	if err != nil {
		return 0, err
	}
	lo, err := e.constUint(sc, t.Lo)
	if err != nil {
		return 0, err
	}
	if hi < lo {
		return 0, fmt.Errorf("descending range [%d:%d] unsupported", hi, lo)
	}
	if hi-lo >= hdl.MaxWidth {
		return 0, fmt.Errorf("range [%d:%d] exceeds %d bits", hi, lo, hdl.MaxWidth)
	}
	return int(hi-lo) + 1, nil
}

// ---- constant evaluation ----

// constEval evaluates an expression that may only reference literals,
// parameters, enum members and loop variables.
func (e *elaborator) constEval(sc *scope, ex hdl.Expr) (logic.BV, error) {
	switch n := ex.(type) {
	case *hdl.Number:
		bv, err := logic.FromString(n.Bits)
		if err != nil {
			return logic.BV{}, err
		}
		if n.Width == 0 && !n.IsFill {
			return bv.Resize(64), nil
		}
		return bv, nil
	case *hdl.Ident:
		if v, ok := sc.params[n.Name]; ok {
			return v, nil
		}
		return logic.BV{}, fmt.Errorf("%v: %q is not a constant", n.ExprPos(), n.Name)
	case *hdl.Unary:
		x, err := e.constEval(sc, n.X)
		if err != nil {
			return logic.BV{}, err
		}
		switch n.Op {
		case "-":
			return x.Neg(), nil
		case "~":
			return x.Not(), nil
		case "!":
			return x.LogicalNot(), nil
		case "+":
			return x, nil
		}
		return logic.BV{}, fmt.Errorf("%v: unary %q not constant-foldable", n.ExprPos(), n.Op)
	case *hdl.Binary:
		x, err := e.constEval(sc, n.X)
		if err != nil {
			return logic.BV{}, err
		}
		y, err := e.constEval(sc, n.Y)
		if err != nil {
			return logic.BV{}, err
		}
		w := max(x.Width(), y.Width())
		x, y = x.Resize(w), y.Resize(w)
		switch n.Op {
		case "+":
			return x.Add(y), nil
		case "-":
			return x.Sub(y), nil
		case "*":
			return x.Mul(y), nil
		case "&":
			return x.And(y), nil
		case "|":
			return x.Or(y), nil
		case "^":
			return x.Xor(y), nil
		case "<<":
			return x.Shl(y), nil
		case ">>":
			return x.Shr(y), nil
		case "==":
			return x.Eq(y), nil
		case "!=":
			return x.Neq(y), nil
		case "<":
			return x.Lt(y), nil
		case "<=":
			return x.Le(y), nil
		case ">":
			return x.Gt(y), nil
		case ">=":
			return x.Ge(y), nil
		case "&&":
			return x.LogicalAnd(y), nil
		case "||":
			return x.LogicalOr(y), nil
		}
		return logic.BV{}, fmt.Errorf("%v: binary %q not constant-foldable", n.ExprPos(), n.Op)
	case *hdl.Ternary:
		c, err := e.constEval(sc, n.Cond)
		if err != nil {
			return logic.BV{}, err
		}
		if c.Truthy() == logic.L1 {
			return e.constEval(sc, n.Then)
		}
		return e.constEval(sc, n.Else)
	}
	return logic.BV{}, fmt.Errorf("%v: expression is not constant", ex.ExprPos())
}

func (e *elaborator) constUint(sc *scope, ex hdl.Expr) (uint64, error) {
	v, err := e.constEval(sc, ex)
	if err != nil {
		return 0, err
	}
	u, ok := v.Uint64()
	if !ok {
		return 0, fmt.Errorf("%v: constant has unknown bits", ex.ExprPos())
	}
	return u, nil
}

// ---- expression compilation ----

// compileExpr compiles an expression with a context width hint ctxW
// (0 = self-determined), following Verilog's context sizing rules.
func (e *elaborator) compileExpr(sc *scope, ex hdl.Expr, ctxW int) (Expr, error) {
	switch n := ex.(type) {
	case *hdl.Number:
		bv, err := logic.FromString(n.Bits)
		if err != nil {
			return nil, err
		}
		switch {
		case n.IsFill:
			w := ctxW
			if w == 0 {
				w = 1
			}
			return Const{V: bv.Repl(w).Extract(w-1, 0)}, nil
		case n.Width == 0:
			w := ctxW
			if w == 0 {
				w = max(32, bv.Width())
			}
			if w < bv.Width() {
				// keep all significant bits (Verilog widens, never
				// silently truncates an unsized literal's value here)
				w = bv.Width()
			}
			return Const{V: bv.Resize(w)}, nil
		default:
			return Const{V: bv}, nil
		}
	case *hdl.Ident:
		if v, ok := sc.params[n.Name]; ok {
			if ctxW > 0 {
				return Const{V: v.Resize(ctxW)}, nil
			}
			return Const{V: v}, nil
		}
		if sig, ok := sc.signals[n.Name]; ok {
			return Sig{Idx: sig.Index, W: sig.Width}, nil
		}
		if _, ok := sc.mems[n.Name]; ok {
			return nil, fmt.Errorf("%v: memory %q used without index", n.ExprPos(), n.Name)
		}
		return nil, fmt.Errorf("%v: unknown identifier %q in %s", n.ExprPos(), n.Name, sc.modName)
	case *hdl.IndexExpr:
		if base, ok := n.Base.(*hdl.Ident); ok {
			if mem, isMem := sc.mems[base.Name]; isMem {
				addr, err := e.compileExpr(sc, n.Index, 0)
				if err != nil {
					return nil, err
				}
				return MemRead{Mem: mem.Index, Addr: addr, W: mem.Width, Depth: mem.Depth}, nil
			}
		}
		x, err := e.compileExpr(sc, n.Base, 0)
		if err != nil {
			return nil, err
		}
		if cv, err2 := e.constEval(sc, n.Index); err2 == nil {
			if i, ok := cv.Uint64(); ok && int(i) < x.Width() {
				return Slice{X: x, Hi: int(i), Lo: int(i)}, nil
			}
		}
		idx, err := e.compileExpr(sc, n.Index, 0)
		if err != nil {
			return nil, err
		}
		return BitSel{X: x, Idx: idx}, nil
	case *hdl.RangeExpr:
		x, err := e.compileExpr(sc, n.Base, 0)
		if err != nil {
			return nil, err
		}
		if n.IsPlus {
			w, err := e.constUint(sc, n.Lo)
			if err != nil {
				return nil, err
			}
			if w == 0 || w > hdl.MaxWidth {
				return nil, fmt.Errorf("%v: +: width %d out of range", n.ExprPos(), w)
			}
			if cv, err2 := e.constUint(sc, n.Hi); err2 == nil {
				if cv >= hdl.MaxWidth {
					return nil, fmt.Errorf("%v: +: start %d out of range", n.ExprPos(), cv)
				}
				return Slice{X: x, Hi: int(cv) + int(w) - 1, Lo: int(cv)}, nil
			}
			start, err := e.compileExpr(sc, n.Hi, 0)
			if err != nil {
				return nil, err
			}
			return DynSlice{X: x, Start: start, W: int(w)}, nil
		}
		hi, err := e.constUint(sc, n.Hi)
		if err != nil {
			return nil, err
		}
		lo, err := e.constUint(sc, n.Lo)
		if err != nil {
			return nil, err
		}
		if hi >= uint64(x.Width()) || hi < lo {
			return nil, fmt.Errorf("%v: part-select [%d:%d] out of range for width %d", n.ExprPos(), hi, lo, x.Width())
		}
		return Slice{X: x, Hi: int(hi), Lo: int(lo)}, nil
	case *hdl.Unary:
		switch n.Op {
		case "~", "-", "+":
			x, err := e.compileExpr(sc, n.X, ctxW)
			if err != nil {
				return nil, err
			}
			w := max(x.Width(), ctxW)
			x = wrapWidth(x, w)
			switch n.Op {
			case "~":
				return Un{Op: OpNot, X: x, W: w}, nil
			case "-":
				return Un{Op: OpNeg, X: x, W: w}, nil
			default:
				return x, nil
			}
		case "!":
			x, err := e.compileExpr(sc, n.X, 0)
			if err != nil {
				return nil, err
			}
			return Un{Op: OpLNot, X: x, W: 1}, nil
		case "&", "|", "^", "~&", "~|", "~^":
			x, err := e.compileExpr(sc, n.X, 0)
			if err != nil {
				return nil, err
			}
			ops := map[string]UnOp{"&": OpRedAnd, "|": OpRedOr, "^": OpRedXor,
				"~&": OpRedNand, "~|": OpRedNor, "~^": OpRedXnor}
			return Un{Op: ops[n.Op], X: x, W: 1}, nil
		}
		return nil, fmt.Errorf("%v: unsupported unary %q", n.ExprPos(), n.Op)
	case *hdl.Binary:
		switch n.Op {
		case "+", "-", "*", "&", "|", "^", "~^", "^~":
			x, err := e.compileExpr(sc, n.X, ctxW)
			if err != nil {
				return nil, err
			}
			y, err := e.compileExpr(sc, n.Y, ctxW)
			if err != nil {
				return nil, err
			}
			w := max(max(x.Width(), y.Width()), ctxW)
			ops := map[string]BinOp{"+": OpAdd, "-": OpSub, "*": OpMul,
				"&": OpAnd, "|": OpOr, "^": OpXor, "~^": OpXnor, "^~": OpXnor}
			return Bin{Op: ops[n.Op], X: wrapWidth(x, w), Y: wrapWidth(y, w), W: w}, nil
		case "==", "!=", "===", "!==", "<", "<=", ">", ">=":
			x, err := e.compileExpr(sc, n.X, 0)
			if err != nil {
				return nil, err
			}
			y, err := e.compileExpr(sc, n.Y, 0)
			if err != nil {
				return nil, err
			}
			w := max(x.Width(), y.Width())
			ops := map[string]BinOp{"==": OpEq, "!=": OpNeq, "===": OpCaseEq,
				"!==": OpCaseNeq, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}
			return Bin{Op: ops[n.Op], X: wrapWidth(x, w), Y: wrapWidth(y, w), W: 1}, nil
		case "&&", "||":
			x, err := e.compileExpr(sc, n.X, 0)
			if err != nil {
				return nil, err
			}
			y, err := e.compileExpr(sc, n.Y, 0)
			if err != nil {
				return nil, err
			}
			op := OpLAnd
			if n.Op == "||" {
				op = OpLOr
			}
			return Bin{Op: op, X: x, Y: y, W: 1}, nil
		case "<<", ">>", ">>>":
			x, err := e.compileExpr(sc, n.X, ctxW)
			if err != nil {
				return nil, err
			}
			y, err := e.compileExpr(sc, n.Y, 0)
			if err != nil {
				return nil, err
			}
			w := max(x.Width(), ctxW)
			ops := map[string]BinOp{"<<": OpShl, ">>": OpShr, ">>>": OpAshr}
			return Bin{Op: ops[n.Op], X: wrapWidth(x, w), Y: y, W: w}, nil
		case "/", "%":
			return nil, fmt.Errorf("%v: division/modulo unsupported in RTL subset", n.ExprPos())
		}
		return nil, fmt.Errorf("%v: unsupported binary %q", n.ExprPos(), n.Op)
	case *hdl.Ternary:
		c, err := e.compileExpr(sc, n.Cond, 0)
		if err != nil {
			return nil, err
		}
		t, err := e.compileExpr(sc, n.Then, ctxW)
		if err != nil {
			return nil, err
		}
		f, err := e.compileExpr(sc, n.Else, ctxW)
		if err != nil {
			return nil, err
		}
		w := max(max(t.Width(), f.Width()), ctxW)
		return Cond{C: c, T: wrapWidth(t, w), F: wrapWidth(f, w), W: w}, nil
	case *hdl.Concat:
		var parts []Expr
		total := 0
		for _, p := range n.Parts {
			c, err := e.compileExpr(sc, p, 0)
			if err != nil {
				return nil, err
			}
			parts = append(parts, c)
			total += c.Width()
		}
		return CatE{Parts: parts, W: total}, nil
	case *hdl.Repl:
		cnt, err := e.constUint(sc, n.Count)
		if err != nil {
			return nil, err
		}
		if cnt == 0 || cnt > 4096 {
			return nil, fmt.Errorf("%v: replication count %d out of range", n.ExprPos(), cnt)
		}
		v, err := e.compileExpr(sc, n.Value, 0)
		if err != nil {
			return nil, err
		}
		parts := make([]Expr, cnt)
		for i := range parts {
			parts[i] = v
		}
		return CatE{Parts: parts, W: int(cnt) * v.Width()}, nil
	}
	return nil, fmt.Errorf("%v: unsupported expression %T", ex.ExprPos(), ex)
}

// wrapWidth resizes an expression to w bits if needed.
func wrapWidth(x Expr, w int) Expr {
	if x.Width() == w || w == 0 {
		return x
	}
	if c, ok := x.(Const); ok {
		return Const{V: c.V.Resize(w)}
	}
	return ZExt{X: x, W: w}
}

// ---- target compilation ----

func (e *elaborator) compileTarget(sc *scope, ex hdl.Expr) (Target, error) {
	switch n := ex.(type) {
	case *hdl.Ident:
		if sig, ok := sc.signals[n.Name]; ok {
			return TSig{Idx: sig.Index, W: sig.Width}, nil
		}
		return nil, fmt.Errorf("%v: unknown assignment target %q in %s", n.ExprPos(), n.Name, sc.modName)
	case *hdl.IndexExpr:
		base, ok := n.Base.(*hdl.Ident)
		if !ok {
			return nil, fmt.Errorf("%v: unsupported nested target", n.ExprPos())
		}
		if mem, isMem := sc.mems[base.Name]; isMem {
			addr, err := e.compileExpr(sc, n.Index, 0)
			if err != nil {
				return nil, err
			}
			return TMem{Mem: mem.Index, W: mem.Width, Depth: mem.Depth, Addr: addr}, nil
		}
		sig, ok := sc.signals[base.Name]
		if !ok {
			return nil, fmt.Errorf("%v: unknown target %q", n.ExprPos(), base.Name)
		}
		if cv, err := e.constEval(sc, n.Index); err == nil {
			if i, defined := cv.Uint64(); defined && int(i) < sig.Width {
				return TRange{Idx: sig.Index, W: sig.Width, Hi: int(i), Lo: int(i)}, nil
			}
		}
		idx, err := e.compileExpr(sc, n.Index, 0)
		if err != nil {
			return nil, err
		}
		return TBit{Idx: sig.Index, W: sig.Width, BitE: idx}, nil
	case *hdl.RangeExpr:
		base, ok := n.Base.(*hdl.Ident)
		if !ok {
			return nil, fmt.Errorf("%v: unsupported nested target", n.ExprPos())
		}
		sig, ok := sc.signals[base.Name]
		if !ok {
			return nil, fmt.Errorf("%v: unknown target %q", n.ExprPos(), base.Name)
		}
		if n.IsPlus {
			start, err := e.constUint(sc, n.Hi)
			if err != nil {
				return nil, fmt.Errorf("%v: +: target needs constant start: %w", n.ExprPos(), err)
			}
			w, err := e.constUint(sc, n.Lo)
			if err != nil {
				return nil, err
			}
			if w == 0 || w > hdl.MaxWidth || start >= hdl.MaxWidth {
				return nil, fmt.Errorf("%v: +: target [%d +: %d] out of range", n.ExprPos(), start, w)
			}
			return TRange{Idx: sig.Index, W: sig.Width, Hi: int(start + w - 1), Lo: int(start)}, nil
		}
		hi, err := e.constUint(sc, n.Hi)
		if err != nil {
			return nil, err
		}
		lo, err := e.constUint(sc, n.Lo)
		if err != nil {
			return nil, err
		}
		if hi >= uint64(sig.Width) || hi < lo {
			return nil, fmt.Errorf("%v: target range [%d:%d] out of bounds for %s[%d]", n.ExprPos(), hi, lo, sig.Name, sig.Width)
		}
		return TRange{Idx: sig.Index, W: sig.Width, Hi: int(hi), Lo: int(lo)}, nil
	case *hdl.Concat:
		var parts []Target
		total := 0
		for _, p := range n.Parts {
			t, err := e.compileTarget(sc, p)
			if err != nil {
				return nil, err
			}
			parts = append(parts, t)
			total += t.TWidth()
		}
		return TCat{Parts: parts, W: total}, nil
	}
	return nil, fmt.Errorf("%v: unsupported assignment target %T", ex.ExprPos(), ex)
}

// ---- statement compilation ----

func (e *elaborator) compileStmt(sc *scope, procName string, st hdl.Stmt) ([]Stmt, error) {
	switch n := st.(type) {
	case *hdl.Block:
		var out []Stmt
		for _, s := range n.Stmts {
			c, err := e.compileStmt(sc, procName, s)
			if err != nil {
				return nil, err
			}
			out = append(out, c...)
		}
		return out, nil
	case *hdl.AssignStmt:
		tgt, err := e.compileTarget(sc, n.LHS)
		if err != nil {
			return nil, err
		}
		rhs, err := e.compileExpr(sc, n.RHS, tgt.TWidth())
		if err != nil {
			return nil, err
		}
		return []Stmt{SAssign{LHS: tgt, RHS: wrapWidth(rhs, tgt.TWidth()), NB: n.NonBlocking, Pos: n.StmtPos()}}, nil
	case *hdl.If:
		cond, err := e.compileExpr(sc, n.Cond, 0)
		if err != nil {
			return nil, err
		}
		then, err := e.compileStmt(sc, procName, n.Then)
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if n.Else != nil {
			els, err = e.compileStmt(sc, procName, n.Else)
			if err != nil {
				return nil, err
			}
		}
		id := e.newBranch(procName, "if", 3, cond, n.StmtPos())
		return []Stmt{SIf{BranchID: id, Cond: cond, Then: then, Else: els}}, nil
	case *hdl.Case:
		subj, err := e.compileExpr(sc, n.Subject, 0)
		if err != nil {
			return nil, err
		}
		out := SCase{Subject: subj}
		for _, item := range n.Items {
			if item.Matches == nil {
				body, err := e.compileStmt(sc, procName, item.Body)
				if err != nil {
					return nil, err
				}
				out.Default = body
				continue
			}
			var ms []Expr
			for _, m := range item.Matches {
				c, err := e.compileExpr(sc, m, subj.Width())
				if err != nil {
					return nil, err
				}
				ms = append(ms, c)
			}
			body, err := e.compileStmt(sc, procName, item.Body)
			if err != nil {
				return nil, err
			}
			out.Items = append(out.Items, SCaseItem{Matches: ms, Body: body})
		}
		out.BranchID = e.newBranch(procName, "case", len(out.Items)+1, subj, n.StmtPos())
		return []Stmt{out}, nil
	case *hdl.For:
		initV, err := e.constUint(sc, n.Init)
		if err != nil {
			return nil, fmt.Errorf("%v: for-loop init must be constant: %w", n.StmtPos(), err)
		}
		var out []Stmt
		iter := 0
		for i := initV; ; i++ {
			sc.params[n.Var] = logic.FromUint64(32, i)
			cv, err := e.constEval(sc, n.Cond)
			if err != nil {
				delete(sc.params, n.Var)
				return nil, fmt.Errorf("%v: for-loop bound must be constant: %w", n.StmtPos(), err)
			}
			if cv.Truthy() != logic.L1 {
				break
			}
			body, err := e.compileStmt(sc, procName, n.Body)
			if err != nil {
				delete(sc.params, n.Var)
				return nil, err
			}
			out = append(out, body...)
			iter++
			if iter > maxLoopIterations {
				delete(sc.params, n.Var)
				return nil, fmt.Errorf("%v: for-loop exceeds %d iterations", n.StmtPos(), maxLoopIterations)
			}
		}
		delete(sc.params, n.Var)
		return out, nil
	case *hdl.NullStmt:
		return nil, nil
	}
	return nil, fmt.Errorf("%v: unsupported statement %T", st.StmtPos(), st)
}

// newBranch allocates a branch ID and records its metadata.
func (e *elaborator) newBranch(procName, kind string, arms int, cond Expr, pos hdl.Pos) int {
	id := e.d.Branches
	e.d.Branches++
	e.d.BranchInfo = append(e.d.BranchInfo, BranchInfo{
		ID:          id,
		Where:       fmt.Sprintf("%s@%v", procName, pos),
		Kind:        kind,
		Arms:        arms,
		CondSignals: exprReads(cond),
		Proc:        e.curProc,
		Pos:         pos,
	})
	return id
}

// ---- read/write analysis ----

// exprReads returns the sorted, de-duplicated signal indices read by e.
func exprReads(e Expr) []int {
	set := map[int]bool{}
	collectExprReads(e, set)
	return sortedKeys(set)
}

func collectExprReads(e Expr, set map[int]bool) {
	switch n := e.(type) {
	case Const:
	case Sig:
		set[n.Idx] = true
	case Bin:
		collectExprReads(n.X, set)
		collectExprReads(n.Y, set)
	case Un:
		collectExprReads(n.X, set)
	case Cond:
		collectExprReads(n.C, set)
		collectExprReads(n.T, set)
		collectExprReads(n.F, set)
	case CatE:
		for _, p := range n.Parts {
			collectExprReads(p, set)
		}
	case Slice:
		collectExprReads(n.X, set)
	case BitSel:
		collectExprReads(n.X, set)
		collectExprReads(n.Idx, set)
	case DynSlice:
		collectExprReads(n.X, set)
		collectExprReads(n.Start, set)
	case ZExt:
		collectExprReads(n.X, set)
	case MemRead:
		collectExprReads(n.Addr, set)
	}
}

// collectStmt gathers reads and writes of a statement list.
func collectStmt(stmts []Stmt, reads, writes map[int]bool, memReads map[int]bool) {
	for _, s := range stmts {
		switch n := s.(type) {
		case SAssign:
			collectExprReads(n.RHS, reads)
			collectExprMemReads(n.RHS, memReads)
			collectTarget(n.LHS, reads, writes)
		case SIf:
			collectExprReads(n.Cond, reads)
			collectExprMemReads(n.Cond, memReads)
			collectStmt(n.Then, reads, writes, memReads)
			collectStmt(n.Else, reads, writes, memReads)
		case SCase:
			collectExprReads(n.Subject, reads)
			collectExprMemReads(n.Subject, memReads)
			for _, item := range n.Items {
				for _, m := range item.Matches {
					collectExprReads(m, reads)
					collectExprMemReads(m, memReads)
				}
				collectStmt(item.Body, reads, writes, memReads)
			}
			collectStmt(n.Default, reads, writes, memReads)
		}
	}
}

func collectExprMemReads(e Expr, set map[int]bool) {
	switch n := e.(type) {
	case Bin:
		collectExprMemReads(n.X, set)
		collectExprMemReads(n.Y, set)
	case Un:
		collectExprMemReads(n.X, set)
	case Cond:
		collectExprMemReads(n.C, set)
		collectExprMemReads(n.T, set)
		collectExprMemReads(n.F, set)
	case CatE:
		for _, p := range n.Parts {
			collectExprMemReads(p, set)
		}
	case Slice:
		collectExprMemReads(n.X, set)
	case BitSel:
		collectExprMemReads(n.X, set)
	case DynSlice:
		collectExprMemReads(n.X, set)
	case ZExt:
		collectExprMemReads(n.X, set)
	case MemRead:
		set[n.Mem] = true
		collectExprMemReads(n.Addr, set)
	}
}

func collectTarget(t Target, reads, writes map[int]bool) {
	switch n := t.(type) {
	case TSig:
		writes[n.Idx] = true
	case TRange:
		writes[n.Idx] = true
		reads[n.Idx] = true // read-modify-write
	case TBit:
		writes[n.Idx] = true
		reads[n.Idx] = true
		collectExprReads(n.BitE, reads)
	case TCat:
		for _, p := range n.Parts {
			collectTarget(p, reads, writes)
		}
	case TMem:
		collectExprReads(n.Addr, reads)
	}
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// finishProcess computes the read/write sets of a compiled process.
func finishProcess(p *Process) {
	reads, writes, memReads := map[int]bool{}, map[int]bool{}, map[int]bool{}
	collectStmt(p.Body, reads, writes, memReads)
	p.Reads = sortedKeys(reads)
	p.Writes = sortedKeys(writes)
	p.MemReads = sortedKeys(memReads)
}
