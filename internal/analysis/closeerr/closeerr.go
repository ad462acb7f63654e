// Package closeerr machine-checks the engine's resource lifecycle on
// error paths: a scan-shaped resource opened inside a function — an
// exec.Operator, Rows, Source, os.File — must be closed before every
// error return, unless custody is transferred (the value is returned,
// stored into a field or another variable, or passed to a call) or a
// defer covers all exits.
//
// Resource types are recognized structurally: a method set with
// Close() error plus any of Open/Next/NextBatch (os.File is included
// explicitly — it is the engine's most common leak shape). The analysis
// is intraprocedural and flow-sensitive over the ctrlflow CFG, and
// models the repository's conventions edge-sensitively:
//
//	src, err := openSource(...)        // open only on the success edge
//	if err != nil { return err }       // nothing to close here
//	if err := src.Open(ctx); err != nil {
//	    return err                     // Open failed: no Close owed
//	}
//	defer src.Close()
//
// Error returns are returns whose error result expression is not the
// literal nil; naked returns and single-call tuple returns are not
// classified and stay quiet. Functions containing goto are skipped.
package closeerr

import (
	"go/ast"
	"go/types"
	"sort"

	"nodb/internal/analysis"
	"nodb/internal/analysis/ctrlflow"
)

// Analyzer is the closeerr check.
var Analyzer = &analysis.Analyzer{
	Name: "closeerr",
	Doc:  "checks that opened scan resources are closed on every error return",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				checkFunc(pass, fd.Body, fn.Type().(*types.Signature))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				if t := info.TypeOf(lit); t != nil {
					if sig, ok := t.Underlying().(*types.Signature); ok {
						checkFunc(pass, lit.Body, sig)
					}
				}
			}
			return true
		})
	}
	return nil
}

// isResource reports whether t is a scan-shaped resource: its method set
// has Close() error plus an Open/Next/NextBatch, or it is os.File.
func isResource(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if analysis.IsNamedType(t, "os", "File") {
		return true
	}
	var ms *types.MethodSet
	if types.IsInterface(t.Underlying()) {
		ms = types.NewMethodSet(t)
	} else {
		ms = types.NewMethodSet(types.NewPointer(t))
	}
	hasClose, hasIter := false, false
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		switch m.Name() {
		case "Close":
			sig, ok := m.Type().(*types.Signature)
			if ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
				analysis.IsErrorType(sig.Results().At(0).Type()) {
				hasClose = true
			}
		case "Open", "Next", "NextBatch":
			hasIter = true
		}
	}
	return hasClose && hasIter
}

// fact is the set of resource variables that may be open.
type fact map[types.Object]bool

func (f fact) clone() fact {
	out := make(fact, len(f))
	for k := range f {
		out[k] = true
	}
	return out
}

func union(dst, src fact) (fact, bool) {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return dst, changed
}

type funcAnal struct {
	pass        *analysis.Pass
	sig         *types.Signature
	tracked     map[types.Object]bool // resource-typed locals seen in the body
	escaped     map[types.Object]bool // custody transferred: skip checks
	deferClosed map[types.Object]bool // a defer closes it on all exits
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, sig *types.Signature) {
	a := &funcAnal{
		pass:        pass,
		sig:         sig,
		tracked:     make(map[types.Object]bool),
		escaped:     make(map[types.Object]bool),
		deferClosed: make(map[types.Object]bool),
	}
	a.scan(body)
	if len(a.tracked) == 0 {
		return
	}
	g := ctrlflow.Build(body)
	if g.Unsupported {
		return
	}
	for _, d := range g.Defers {
		ast.Inspect(d.Call, func(n ast.Node) bool {
			if obj := a.closeTarget(n); obj != nil {
				a.deferClosed[obj] = true
			}
			return true
		})
	}
	in := a.fixpoint(g)
	for _, b := range g.Blocks {
		if in[b.Index] == nil {
			continue
		}
		a.transfer(b, in[b.Index], func(n ast.Node, cur fact) {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || !a.isErrorReturn(ret) {
				return
			}
			var names []string
			for obj := range cur {
				if !a.escaped[obj] && !a.deferClosed[obj] {
					names = append(names, obj.Name())
				}
			}
			sort.Strings(names)
			for _, name := range names {
				a.pass.Reportf(ret.Pos(), "%s may be open at this error return: close it or transfer custody before returning", name)
			}
		})
	}
}

// scan collects resource-typed locals and custody escapes. A use is an
// escape unless it is the receiver of a method call, a nil comparison,
// or an assignment target; anything else (returned, stored, passed,
// address taken, element of a composite) transfers custody and silences
// the variable — intentionally erring toward quiet.
func (a *funcAnal) scan(body *ast.BlockStmt) {
	info := a.pass.TypesInfo
	analysis.WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Defs[id]
		isDef := obj != nil
		if obj == nil {
			obj = info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || !isResource(v.Type()) {
			return true
		}
		a.tracked[obj] = true
		if isDef {
			return true
		}
		if len(stack) == 0 {
			return true
		}
		switch p := stack[len(stack)-1].(type) {
		case *ast.SelectorExpr:
			if p.X == id {
				return true // receiver of src.Close()/src.Next(): not an escape
			}
		case *ast.BinaryExpr:
			return true // nil comparison or similar: not an escape
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == id {
					return true // assignment target: tracked via creations
				}
			}
		}
		a.escaped[obj] = true
		return true
	})
}

// closeTarget resolves n as a `v.Close()` call on a tracked variable.
func (a *funcAnal) closeTarget(n ast.Node) types.Object {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil
	}
	recv, _, name, ok := analysis.MethodCall(a.pass.TypesInfo, call)
	if !ok || name != "Close" {
		return nil
	}
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := a.pass.TypesInfo.Uses[id]
	if obj == nil || !a.tracked[obj] {
		return nil
	}
	return obj
}

// guard clears the listed resources along the error edge of an
// `err != nil` branch: creation and Open failures leave nothing to close.
type guard struct {
	errObj   types.Object
	objs     []types.Object
	errEdge  int
	condSeen bool
}

// transfer replays one block from fact in (cloned, never mutated). visit
// runs after each node's effects, so a Close inside the return statement
// itself counts.
func (a *funcAnal) transfer(b *ctrlflow.Block, in fact, visit func(ast.Node, fact)) []fact {
	info := a.pass.TypesInfo
	cur := in.clone()
	var pending *guard
	for _, n := range b.Nodes {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
				var created []types.Object
				var errObj types.Object
				for _, lhs := range as.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					switch {
					case obj == nil:
					case a.tracked[obj]:
						created = append(created, obj)
					case analysis.IsErrorType(obj.Type()):
						errObj = obj
					}
				}
				for _, obj := range created {
					cur[obj] = true
				}
				if errObj != nil {
					switch {
					case len(created) > 0:
						pending = &guard{errObj: errObj, objs: created}
					default:
						// `err := src.Open(ctx)`: failure means no Close owed.
						if recv, _, name, ok := analysis.MethodCall(info, call); ok && name == "Open" {
							if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
								if obj := info.Uses[id]; obj != nil && a.tracked[obj] {
									pending = &guard{errObj: errObj, objs: []types.Object{obj}}
								}
							}
						}
					}
				}
			}
		}
		if be, ok := n.(*ast.BinaryExpr); ok && pending != nil && !pending.condSeen {
			if edge, ok := analysis.ErrNilEdge(info, be, pending.errObj); ok {
				pending.errEdge = edge
				pending.condSeen = true
			}
		}
		ctrlflow.InspectNode(n, func(m ast.Node) bool {
			if obj := a.closeTarget(m); obj != nil {
				delete(cur, obj)
			}
			return true
		})
		if visit != nil {
			visit(n, cur)
		}
	}
	outs := make([]fact, len(b.Succs))
	for i := range outs {
		outs[i] = cur.clone()
	}
	if pending != nil && pending.condSeen && len(outs) == 2 {
		for _, obj := range pending.objs {
			delete(outs[pending.errEdge], obj)
		}
	}
	return outs
}

// isErrorReturn reports whether ret's error result expression is
// something other than the literal nil. Naked returns and single-call
// tuple returns are not classified.
func (a *funcAnal) isErrorReturn(ret *ast.ReturnStmt) bool {
	res := a.sig.Results()
	if res.Len() == 0 || !analysis.IsErrorType(res.At(res.Len()-1).Type()) {
		return false
	}
	if len(ret.Results) != res.Len() {
		return false
	}
	e := ret.Results[len(ret.Results)-1]
	if tv, ok := a.pass.TypesInfo.Types[e]; ok && tv.IsNil() {
		return false
	}
	return true
}

func (a *funcAnal) fixpoint(g *ctrlflow.Graph) []fact {
	in := make([]fact, len(g.Blocks))
	in[g.Entry.Index] = fact{}
	work := []*ctrlflow.Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		outs := a.transfer(b, in[b.Index], nil)
		for i, succ := range b.Succs {
			if in[succ.Index] == nil {
				in[succ.Index] = outs[i]
				work = append(work, succ)
			} else if merged, changed := union(in[succ.Index], outs[i]); changed {
				in[succ.Index] = merged
				work = append(work, succ)
			}
		}
	}
	return in
}
