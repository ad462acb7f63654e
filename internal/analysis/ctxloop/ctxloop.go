// Package ctxloop checks that row-iterating code on context-aware scan
// paths observes cancellation, so no format adapter can ship an
// uncancellable scan. The engine's established idiom is a tick check —
//
//	if s.tick++; s.tick&255 == 0 {
//	    if err := s.ctx.Err(); err != nil { ... }
//	}
//
// — or a select on ctx.Done(); both reduce to "the loop (or the Next
// method it implements) mentions ctx.Err or ctx.Done, directly or
// through a same-package callee".
//
// Two rules, both scoped to functions that carry a context (a
// context.Context parameter, a receiver with a context.Context field, or
// a literal nested in such a function — operators without a context
// delegate cancellation to the leaf scan below them and are exempt):
//
//  1. Every Next/NextBatch method on a context-carrying receiver must
//     contain a cancellation check: leaf scans are pulled one row or
//     batch per call, so the check belongs in the method even when it
//     has no loop. A method that delegates to another Next/NextBatch
//     call is exempt: it is a wrapper forwarding to the operator it
//     wraps (a profiling span, a retry or lock guard around an access
//     method), which pulls back through that scan's own checked path.
//  2. Every unbounded loop (`for {...}` / `for cond {...}`) that does
//     real work (contains a call) must contain a cancellation check.
//     Bounded three-clause and range loops iterate over one batch or
//     slice and are exempt.
package ctxloop

import (
	"go/ast"
	"go/types"

	"nodb/internal/analysis"
)

// Analyzer is the ctxloop check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxloop",
	Doc:  "checks that context-carrying scan loops and Next/NextBatch methods observe cancellation",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, mentions: make(map[*types.Func]int), decls: make(map[*types.Func]*ast.FuncDecl)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			carries := carriesCtx(pass.TypesInfo, fd)
			if carries && (fd.Name.Name == "Next" || fd.Name.Name == "NextBatch") && receiverHasCtxField(pass.TypesInfo, fd) {
				if !c.checks(fd.Body, 0) && !delegatesPull(pass.TypesInfo, fd.Body) {
					pass.Reportf(fd.Name.Pos(), "%s on a context-carrying scan has no cancellation check (ctx.Err or ctx.Done, possibly every N rows)", fd.Name.Name)
				}
			}
			c.loops(fd.Body, carries)
		}
	}
	return nil
}

type checker struct {
	pass     *analysis.Pass
	mentions map[*types.Func]int // 0 unknown/in progress, 1 yes, -1 no
	decls    map[*types.Func]*ast.FuncDecl
}

// loops walks one declared function's body, visiting nested literals with
// the carries-context property they inherit lexically.
func (c *checker) loops(n ast.Node, carries bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			inner := carries || hasCtxParam(c.pass.TypesInfo, m.Type)
			c.loops(m.Body, inner)
			return false
		case *ast.ForStmt:
			if carries && m.Init == nil && m.Post == nil && containsCall(m.Body) && !c.checks(m, 0) {
				c.pass.Reportf(m.For, "unbounded loop on a context-carrying path has no cancellation check (ctx.Err or ctx.Done); new scans must stay cancellable")
			}
		}
		return true
	})
}

// checks reports whether n lexically contains a cancellation check —
// ctx.Err()/ctx.Done() on a context.Context value — directly or through
// same-package callees (full transitive closure; nested literals count,
// since the loop either runs or registers them on its own path).
func (c *checker) checks(n ast.Node, depth int) bool {
	if depth > 20 {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, recvType, name, ok := analysis.MethodCall(c.pass.TypesInfo, call); ok {
			if (name == "Err" || name == "Done") && analysis.IsContextType(recvType) {
				found = true
				return false
			}
		}
		if fn := analysis.CalleeFunc(c.pass.TypesInfo, call); fn != nil {
			if state, seen := c.mentions[fn]; seen {
				if state == 1 {
					found = true
				}
				return !found
			}
			if decl, ok := c.decls[fn]; ok {
				c.mentions[fn] = 0 // cycle guard: in progress counts as "no"
				res := c.checks(decl.Body, depth+1)
				if res {
					c.mentions[fn] = 1
					found = true
				} else {
					c.mentions[fn] = -1
				}
			}
		}
		return !found
	})
	return found
}

// delegatesPull reports whether body hands iteration to another
// Next/NextBatch method call — the batching/row-adapter shape, where the
// adapter pulls back through the scan's own cancellation-checked path.
func delegatesPull(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if _, _, name, ok := analysis.MethodCall(info, call); ok && (name == "Next" || name == "NextBatch") {
				found = true
			}
		}
		return !found
	})
	return found
}

// carriesCtx reports whether the declared function has a context in
// scope: a context.Context parameter or a receiver field of that type.
func carriesCtx(info *types.Info, fd *ast.FuncDecl) bool {
	if hasCtxParam(info, fd.Type) {
		return true
	}
	return receiverHasCtxField(info, fd)
}

func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if t := info.TypeOf(field.Type); t != nil && analysis.IsContextType(t) {
			return true
		}
	}
	return false
}

func receiverHasCtxField(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if analysis.IsContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// containsCall reports whether the loop body does any real work — calls
// a function — as opposed to pure index arithmetic, which cannot iterate
// over rows or block.
func containsCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if _, ok := m.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}
