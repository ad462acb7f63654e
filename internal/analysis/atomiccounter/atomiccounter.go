// Package atomiccounter enforces the engine's counter disciplines:
//
//  1. A variable or struct field that is ever accessed through sync/atomic
//     (its address passed to atomic.AddInt64, LoadInt64, ...) must be
//     accessed that way everywhere in the package. A single plain read or
//     write next to atomic updates is a data race that -race only catches
//     when the schedule cooperates; this check catches it at vet time.
//  2. Scan instrumentation counters flush to the shared format.Counters
//     once, at Close — never from Next/NextBatch. The per-row hot path
//     works on a private unsynchronized qtrace.Counts precisely so that
//     scans pay no synchronization per tuple; a Counters.Flush (or Load)
//     on the row path reintroduces shared-cache traffic.
package atomiccounter

import (
	"go/ast"
	"go/types"

	"nodb/internal/analysis"
)

// Analyzer is the atomiccounter check.
var Analyzer = &analysis.Analyzer{
	Name: "atomiccounter",
	Doc:  "checks that sync/atomic-managed fields are never accessed plainly and that scan counters flush only at Close",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Pass 1: objects whose address feeds sync/atomic, and the idents
	// that appear inside those atomic call arguments (exempt from pass 2).
	atomicObjs := make(map[types.Object]bool)
	inAtomicArg := make(map[*ast.Ident]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || !analysis.PathMatches(fn.Pkg().Path(), "sync/atomic") {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op.String() != "&" {
					continue
				}
				if obj := addressedObject(pass.TypesInfo, u.X); obj != nil {
					atomicObjs[obj] = true
				}
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						inAtomicArg[id] = true
					}
					return true
				})
			}
			return true
		})
	}

	// Pass 2: plain accesses of atomically-managed objects.
	if len(atomicObjs) > 0 {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || inAtomicArg[id] {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil || !atomicObjs[obj] {
					return true
				}
				pass.Reportf(id.Pos(), "%s is accessed with sync/atomic elsewhere in this package; plain access races with the atomic updates", id.Name)
				return true
			})
		}
	}

	// Rule 2: Counters.Flush / Counters.Load on the scan hot path.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Name.Name != "Next" && fd.Name.Name != "NextBatch") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // separate function; not this hot path
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				_, recvType, name, ok := analysis.MethodCall(pass.TypesInfo, call)
				if !ok || (name != "Flush" && name != "Load") {
					return true
				}
				if analysis.IsNamedType(recvType, "internal/format", "Counters") {
					pass.Reportf(call.Pos(), "format.Counters.%s inside %s: scan counters accumulate privately and flush once at Close, not on the row hot path", name, fd.Name.Name)
				}
				return true
			})
		}
	}
	return nil
}

// addressedObject resolves &x or &x.f to the variable object being
// addressed, or nil when it is not a stable variable or field.
func addressedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	case *ast.IndexExpr:
		return addressedObject(info, e.X)
	}
	return nil
}
