package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Nondeterminism taint. Sources are the operations whose value (or whose
// ordering) differs between two runs of the same seed: the wall clock, the
// process environment, the global math/rand stream, select/goroutine
// interleaving, and map iteration order. Sinks are the module's
// determinism surfaces — results.File metrics, the trace Batcher and
// batch encoders, and obs registry instruments — which the workers=1≡N
// and scalar≡batch gates compare byte for byte. A tainted value reaching a
// sink is a reproducibility bug by construction.
//
// The flow is tracked per function (flow-insensitively, iterated to a
// local fixpoint), across calls through the summary fields retTaint /
// paramsToRet / paramSinks, and across the heap through the program-wide
// fieldTaint lattice ("pkg.Type.field" → mask), which is what catches the
// span pattern: time.Now stored into a struct field in one package, read
// and observed in another.

// A taintMask is a set of nondeterminism sources.
type taintMask uint8

const (
	taintWall taintMask = 1 << iota
	taintEnv
	taintRand
	taintSched
	taintMapOrder
)

// label names the highest-priority source in the mask for messages.
func (m taintMask) label() string {
	switch {
	case m&taintWall != 0:
		return "wall-clock"
	case m&taintEnv != 0:
		return "environment"
	case m&taintRand != 0:
		return "global math/rand"
	case m&taintSched != 0:
		return "goroutine/select-ordering"
	case m&taintMapOrder != 0:
		return "map-iteration-order"
	}
	return "nondeterministic"
}

// A taintVal is the abstract value of one expression: the nondeterminism
// it carries plus the set of parameter slots (bit s = slot s) it is
// derived from.
type taintVal struct {
	mask   taintMask
	params uint32
}

func (v taintVal) or(o taintVal) taintVal {
	return taintVal{v.mask | o.mask, v.params | o.params}
}

// taintSource classifies a call as a nondeterminism source.
func taintSource(p *Pass, call *ast.CallExpr) taintMask {
	fn, ok := callee(p.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return 0
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return taintWall
		}
	case "os":
		switch fn.Name() {
		case "Environ", "Getenv", "LookupEnv", "Hostname", "Getpid":
			return taintEnv
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the shared unseeded stream; a
		// method on an injected, seeded *rand.Rand is deterministic, and so
		// are the New*/constructor functions — their output is a pure
		// function of the seed they are handed.
		if strings.HasPrefix(fn.Name(), "New") {
			return 0
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			return taintRand
		}
	}
	return 0
}

// A taintHit is one tainted value reaching a sink.
type taintHit struct {
	pos  token.Pos
	mask taintMask
	sink string
	// via names the module callee that carried the value to the sink, ""
	// for a direct sink call.
	via string
}

// taintScan is one function's local taint analysis: a flow-insensitive
// abstract state over the function's variables, iterated to a fixpoint,
// then swept once for sinks and returns.
type taintScan struct {
	c     *sumCtx
	p     *Pass
	fd    *ast.FuncDecl
	slots map[types.Object]int
	local map[types.Object]taintVal
	// sorted holds locals that were passed to a sort function; their
	// map-iteration-order taint is considered sanitised.
	sorted map[types.Object]bool
	fields map[string]taintMask // struct-field writes discovered
	// reads collects the field IDs whose global taint this scan consulted
	// (nil disables collection). The set is syntactic — which selections
	// the body contains — so one round's collection stays valid for every
	// later round's dirty-SCC check.
	reads   map[string]bool
	changed bool

	ret        taintVal
	paramSinks map[int]string
	hits       []taintHit
}

func newTaintScan(c *sumCtx, pf *progFunc) *taintScan {
	return &taintScan{
		c:          c,
		p:          pf.pass,
		fd:         pf.decl,
		slots:      slotIndex(pf.pass, pf.decl),
		local:      map[types.Object]taintVal{},
		sorted:     map[types.Object]bool{},
		fields:     map[string]taintMask{},
		paramSinks: map[int]string{},
	}
}

// run drives the local fixpoint, then the sink and return sweeps.
func (ts *taintScan) run() {
	for i := 0; i < 32; i++ {
		ts.changed = false
		ts.stmts()
		if !ts.changed {
			break
		}
	}
	ts.sinkSweep()
	ts.returnSweep()
}

// ident resolves an identifier to its object (use or definition).
func (ts *taintScan) ident(id *ast.Ident) types.Object {
	if obj := ts.p.Info.Uses[id]; obj != nil {
		return obj
	}
	return ts.p.Info.Defs[id]
}

// fieldID renders a field selection as the program-wide field key, or ""
// when the base type is not a named struct type.
func (ts *taintScan) fieldID(sel *ast.SelectorExpr) string {
	selection, ok := ts.p.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	t := selection.Recv()
	for {
		if pt, ok := types.Unalias(t).(*types.Pointer); ok {
			t = pt.Elem()
			continue
		}
		break
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
}

// val computes the abstract value of an expression.
func (ts *taintScan) val(e ast.Expr) taintVal {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := ts.ident(x)
		if obj == nil {
			return taintVal{}
		}
		v := ts.local[obj]
		if ts.sorted[obj] {
			v.mask &^= taintMapOrder
		}
		if slot, ok := ts.slots[obj]; ok && slot < 32 {
			v.params |= 1 << slot
		}
		return v
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := ts.p.Info.Uses[id].(*types.PkgName); isPkg {
				return taintVal{} // pkg.Name reference, not a data flow
			}
		}
		v := ts.val(x.X)
		if fid := ts.fieldID(x); fid != "" {
			v.mask |= ts.c.pr.fieldTaint[fid]
			if ts.reads != nil {
				ts.reads[fid] = true
			}
		}
		return v
	case *ast.CallExpr:
		return ts.callVal(x)
	case *ast.BinaryExpr:
		return ts.val(x.X).or(ts.val(x.Y))
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			// A bare channel receive: the value delivered is whatever the
			// sender computed; ordering effects surface through select.
			return taintVal{}
		}
		return ts.val(x.X)
	case *ast.StarExpr:
		return ts.val(x.X)
	case *ast.IndexExpr:
		return ts.val(x.X).or(ts.val(x.Index))
	case *ast.SliceExpr:
		return ts.val(x.X)
	case *ast.TypeAssertExpr:
		return ts.val(x.X)
	case *ast.CompositeLit:
		var v taintVal
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = v.or(ts.val(kv.Value))
				continue
			}
			v = v.or(ts.val(el))
		}
		return v
	case *ast.KeyValueExpr:
		return ts.val(x.Value)
	}
	return taintVal{}
}

// callArg pairs a call argument with the callee parameter slot it binds.
type callArg struct {
	slot int
	e    ast.Expr
}

// callArgs lists a call's receiver (slot 0) and arguments (slots 1..n).
func (ts *taintScan) callArgs(call *ast.CallExpr) []callArg {
	var out []callArg
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, isID := sel.X.(*ast.Ident); !isID || ts.p.Info.Uses[id] == nil || !isPkgName(ts.p.Info.Uses[id]) {
			out = append(out, callArg{0, sel.X})
		}
	}
	for i, a := range call.Args {
		out = append(out, callArg{i + 1, a})
	}
	return out
}

func isPkgName(obj types.Object) bool {
	_, ok := obj.(*types.PkgName)
	return ok
}

// callVal computes the abstract value a call returns.
func (ts *taintScan) callVal(call *ast.CallExpr) taintVal {
	if m := taintSource(ts.p, call); m != 0 {
		return taintVal{mask: m}
	}
	if tv, ok := ts.p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return ts.val(call.Args[0]) // conversion
	}
	argUnion := func() taintVal {
		var v taintVal
		for _, as := range ts.callArgs(call) {
			v = v.or(ts.val(as.e))
		}
		return v
	}
	fn, ok := callee(ts.p.Info, call).(*types.Func)
	if !ok {
		return argUnion() // builtins and function values: pass-through
	}
	if sum := ts.c.forFunc(fn); sum != nil {
		v := taintVal{mask: sum.retTaint}
		for _, as := range ts.callArgs(call) {
			if as.slot < 32 && sum.paramsToRet&(1<<as.slot) != 0 {
				v = v.or(ts.val(as.e))
			}
		}
		return v
	}
	// Out-of-module call (stdlib etc.): conservative pass-through.
	return argUnion()
}

// stmts is one monotone pass over the body's statements.
func (ts *taintScan) stmts() {
	ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			ts.assign(x)
		case *ast.RangeStmt:
			ts.rangeAssign(x)
		case *ast.SelectStmt:
			ts.selectAssign(x)
		case *ast.CompositeLit:
			ts.composite(x)
		case *ast.ExprStmt:
			ts.sanitizer(x.X)
		}
		return true
	})
}

// assign folds one assignment into the abstract state.
func (ts *taintScan) assign(a *ast.AssignStmt) {
	if len(a.Lhs) == len(a.Rhs) {
		for i := range a.Lhs {
			ts.assignOne(a.Lhs[i], ts.val(a.Rhs[i]))
		}
		return
	}
	var v taintVal
	for _, r := range a.Rhs {
		v = v.or(ts.val(r))
	}
	for _, l := range a.Lhs {
		ts.assignOne(l, v)
	}
}

func (ts *taintScan) assignOne(lhs ast.Expr, v taintVal) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := ts.ident(x)
		if obj == nil {
			return
		}
		nv := ts.local[obj].or(v)
		if nv != ts.local[obj] {
			ts.local[obj] = nv
			ts.changed = true
		}
	case *ast.SelectorExpr:
		// Map-iteration-order taint is an ordering property of the stream
		// being walked, not of the individual values: once a value is at
		// rest in a field, the hazard is whatever loop later reads it —
		// tracked where that loop runs. The other bits are value taints and
		// do persist.
		m := v.mask &^ taintMapOrder
		if fid := ts.fieldID(x); fid != "" && m != 0 {
			if ts.fields[fid]&m != m {
				ts.fields[fid] |= m
				ts.changed = true
			}
		}
	case *ast.IndexExpr:
		// Writing a tainted element taints the container — except that an
		// unordered container discharges ordering taint: map content is a
		// set, and ranging it later re-introduces the bit.
		if tv, ok := ts.p.Info.Types[x.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				v.mask &^= taintMapOrder
			}
		}
		if id, _ := selChain(x.X); id != nil {
			ts.assignOne(id, v)
		}
	case *ast.StarExpr:
		ts.assignOne(x.X, v)
	}
}

// rangeAssign taints range variables: a map range additionally carries
// iteration-order taint on both key and value streams.
func (ts *taintScan) rangeAssign(r *ast.RangeStmt) {
	v := ts.val(r.X)
	if tv, ok := ts.p.Info.Types[r.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			v.mask |= taintMapOrder
		}
	}
	if r.Key != nil {
		ts.assignOne(r.Key, v)
	}
	if r.Value != nil {
		ts.assignOne(r.Value, v)
	}
}

// selectAssign taints values received in a multi-way select: which arm ran
// first is scheduler-dependent.
func (ts *taintScan) selectAssign(s *ast.SelectStmt) {
	if len(s.Body.List) < 2 {
		return
	}
	for _, cl := range s.Body.List {
		comm, ok := cl.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue
		}
		if a, ok := comm.Comm.(*ast.AssignStmt); ok {
			for _, l := range a.Lhs {
				ts.assignOne(l, taintVal{mask: taintSched})
			}
		}
	}
}

// composite records struct-literal field writes into the field lattice.
func (ts *taintScan) composite(cl *ast.CompositeLit) {
	tv, ok := ts.p.Info.Types[cl]
	if !ok {
		return
	}
	t := tv.Type
	if pt, isPtr := types.Unalias(t).(*types.Pointer); isPtr {
		t = pt.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	base := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "."
	record := func(field string, v taintVal) {
		m := v.mask &^ taintMapOrder // ordering taint stays with the stream
		if m == 0 || field == "" {
			return
		}
		fid := base + field
		if ts.fields[fid]&m != m {
			ts.fields[fid] |= m
			ts.changed = true
		}
	}
	for i, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, isID := kv.Key.(*ast.Ident); isID {
				record(id.Name, ts.val(kv.Value))
			}
			continue
		}
		if i < st.NumFields() {
			record(st.Field(i).Name(), ts.val(el))
		}
	}
}

// sanitizer recognises sort calls: a local handed to sort.X / slices.X has
// its map-iteration-order taint discharged — collect-then-sort is the
// sanctioned idiom for map-derived output.
func (ts *taintScan) sanitizer(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn, ok := callee(ts.p.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
		return
	}
	if id, _ := selChain(call.Args[0]); id != nil {
		if obj := ts.ident(id); obj != nil && !ts.sorted[obj] {
			ts.sorted[obj] = true
			ts.changed = true
		}
	}
}

// sinkDesc classifies a call as a determinism sink, returning a
// description and the value arguments whose taint matters. Instruments
// fetched from a registry under the reserved "wall." namespace are exempt:
// that namespace is the sanctioned telemetry plane for wall-clock data and
// is excluded from deterministic results by results.File.AddSnapshot.
func sinkDesc(p *Pass, call *ast.CallExpr) (string, []ast.Expr, bool) {
	fn, ok := callee(p.Info, call).(*types.Func)
	if !ok {
		return "", nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil, false
	}
	rt := sig.Recv().Type()
	if pt, isPtr := rt.(*types.Pointer); isPtr {
		rt = pt.Elem()
	}
	named, ok := types.Unalias(rt).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", nil, false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	switch {
	case full == "mosaic/internal/results.File" && fn.Name() == "SetMetric" && len(call.Args) == 2:
		return "a results.File metric", call.Args[1:], true
	case full == "mosaic/internal/obs.Histogram" && fn.Name() == "Observe",
		full == "mosaic/internal/obs.Counter" && fn.Name() == "Add",
		full == "mosaic/internal/obs.Gauge" && (fn.Name() == "Set" || fn.Name() == "Add"):
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel && wallInstrument(p, sel.X) {
			return "", nil, false
		}
		return "an obs registry instrument", call.Args, true
	case full == "mosaic/internal/trace.Batcher" && fn.Name() == "Access":
		return "a trace sink", call.Args, true
	case full == "mosaic/internal/trace.BatchWriter" && (fn.Name() == "WriteBatch" || fn.Name() == "ProcessBatch"),
		full == "mosaic/internal/trace.BatchSink" && fn.Name() == "ProcessBatch":
		return "a trace batch sink", call.Args, true
	}
	return "", nil, false
}

// wallInstrument reports whether e is r.Histogram/Counter/Gauge(NAME) on an
// obs.Registry with a constant NAME in the reserved "wall." namespace.
func wallInstrument(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	fn, ok := callee(p.Info, call).(*types.Func)
	if !ok {
		return false
	}
	switch fn.Name() {
	case "Histogram", "Counter", "Gauge":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if pt, isPtr := rt.(*types.Pointer); isPtr {
		rt = pt.Elem()
	}
	if !namedFrom(rt, "mosaic/internal/obs", "Registry") {
		return false
	}
	tv, ok := p.Info.Types[call.Args[0]]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.String &&
		strings.HasPrefix(constant.StringVal(tv.Value), "wall.")
}

// sinkSweep scans for tainted values reaching sinks — directly, or through
// a module callee whose summary says a parameter reaches one.
func (ts *taintScan) sinkSweep() {
	ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// Direct map write into results.File.Metrics.
			for i, lhs := range x.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr)
				if !ok || ts.fieldID(sel) != "mosaic/internal/results.File.Metrics" {
					continue
				}
				v := ts.val(ix.Index)
				if i < len(x.Rhs) {
					v = v.or(ts.val(x.Rhs[i]))
				}
				ts.record(ix.Pos(), v, "a results.File metric", "")
			}
		case *ast.CallExpr:
			ts.sinkCall(x)
		}
		return true
	})
}

func (ts *taintScan) record(pos token.Pos, v taintVal, sink, via string) {
	if v.mask != 0 {
		ts.hits = append(ts.hits, taintHit{pos: pos, mask: v.mask, sink: sink, via: via})
	}
	for slot := 0; slot < 32; slot++ {
		if v.params&(1<<slot) != 0 {
			if _, taken := ts.paramSinks[slot]; !taken {
				ts.paramSinks[slot] = sink
			}
		}
	}
}

func (ts *taintScan) sinkCall(call *ast.CallExpr) {
	if desc, args, ok := sinkDesc(ts.p, call); ok {
		for _, a := range args {
			ts.record(a.Pos(), ts.val(a), desc, "")
		}
		return
	}
	fn, ok := callee(ts.p.Info, call).(*types.Func)
	if !ok {
		return
	}
	sum := ts.c.forFunc(fn)
	if sum == nil || len(sum.paramSinks) == 0 {
		return
	}
	for _, as := range ts.callArgs(call) {
		desc, sinks := sum.paramSinks[as.slot]
		if !sinks {
			continue
		}
		ts.record(as.e.Pos(), ts.val(as.e), desc, funcID(fn))
	}
}

// returnSweep unions the abstract values of every return expression.
func (ts *taintScan) returnSweep() {
	ast.Inspect(ts.fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				ts.ret = ts.ret.or(ts.val(r))
			}
		}
		return true
	})
}

// fieldWrite is one discovered struct-field taint, ordered for the merge.
type fieldWrite struct {
	id   string
	mask taintMask
}

// taintSCCOut is one SCC's phase-2 result: the members' updated summaries
// (member order), the field writes they discovered (sorted by id), and the
// field IDs whose global taint the members consulted (sorted; the dirty-SCC
// scheduler in computeSummaries re-scans this SCC when one changes).
type taintSCCOut struct {
	sums   []*funcSummary
	fields []fieldWrite
	reads  []string
}

// taintSCC computes the taint summary fields for one SCC, iterating cyclic
// components against an overlay. Field writes are collected but NOT
// published here — the sequential merge in computeSummaries owns the
// global lattice, keeping the result independent of worker scheduling.
func (pr *Program) taintSCC(comp []*progFunc) *taintSCCOut {
	c := &sumCtx{pr: pr, overlay: map[*progFunc]*funcSummary{}}
	fields := map[string]taintMask{}
	reads := map[string]bool{}
	scanOne := func(pf *progFunc) *funcSummary {
		ts := newTaintScan(c, pf)
		ts.reads = reads
		ts.run()
		ns := *c.forNode(pf) // copy: core fields ride along unchanged
		ns.retTaint = ts.ret.mask
		ns.paramsToRet = ts.ret.params
		ns.paramSinks = ts.paramSinks
		for fid, m := range ts.fields {
			fields[fid] |= m
		}
		return &ns
	}
	if cyclic(comp) {
		for _, pf := range comp {
			cp := *pf.sum
			cp.retTaint = 0
			cp.paramsToRet = 0
			cp.paramSinks = map[int]string{}
			c.overlay[pf] = &cp
		}
		for iter := 0; iter < sccIterCap(len(comp)); iter++ {
			changed := false
			for _, pf := range comp {
				ns := scanOne(pf)
				if !taintEqual(c.overlay[pf], ns) {
					changed = true
				}
				c.overlay[pf] = ns
			}
			if !changed {
				break
			}
		}
	} else {
		c.overlay[comp[0]] = scanOne(comp[0])
	}
	out := &taintSCCOut{sums: make([]*funcSummary, len(comp))}
	for i, pf := range comp {
		out.sums[i] = c.overlay[pf]
	}
	ids := make([]string, 0, len(fields))
	for id := range fields {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		out.fields = append(out.fields, fieldWrite{id, fields[id]})
	}
	out.reads = make([]string, 0, len(reads))
	for id := range reads {
		out.reads = append(out.reads, id)
	}
	sort.Strings(out.reads)
	return out
}
