// Package hotalloc machine-checks the engine's hot-path discipline:
// functions tagged //nodb:hotpath — the compiled kernel closures, the
// cache batch readers, the vectorized filter/project loops — must stay
// free of the per-row costs the kernel compiler exists to eliminate.
//
// The tag attaches to:
//
//   - a function declaration (the whole body, including nested literals);
//   - a named func type declaration (every func literal created where a
//     value of that type is expected — how the kernel closures are
//     tagged once, at the filterFn/vecFn type, instead of at every
//     literal);
//   - a statement (the func literals that statement contains).
//
// Inside a hot body the analyzer reports:
//
//   - interface conversions of non-pointer values (boxing allocates per
//     value and introduces dynamic dispatch; converting a datum.Datum is
//     called out specially since it is the engine's per-field currency);
//   - map allocation (make(map...), map literals);
//   - closures capturing a reassigned outer variable (the variable is
//     forced to the heap and every access is indirect);
//   - append onto a slice the function itself created with no capacity
//     (growth reallocates mid-loop; preallocate or take the buffer from
//     the caller).
//
// fmt.Errorf calls are exempt: constructing the error that aborts a scan
// is not on the per-row path. For anything else deliberate, a
// //nodblint:ignore hotalloc <reason> comment suppresses the line.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"nodb/internal/analysis"
)

// Directive is the comment that tags a hot path.
const Directive = "//nodb:hotpath"

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "checks that //nodb:hotpath functions avoid boxing, map allocation, by-reference captures and unsized appends",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	hotTypes := hotFuncTypes(pass)
	directiveLines := directiveLines(pass)

	// Collect hot functions: tagged declarations, literals of tagged
	// func types, literals under a tagged statement line, and literals
	// nested in any of those.
	type hotFunc struct {
		body *ast.BlockStmt
		name string
	}
	var hot []hotFunc
	seen := make(map[*ast.BlockStmt]bool)
	addHot := func(body *ast.BlockStmt, name string) {
		if !seen[body] {
			seen[body] = true
			hot = append(hot, hotFunc{body, name})
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if analysis.HasDirective([]*ast.CommentGroup{fd.Doc}, Directive) {
				addHot(fd.Body, fd.Name.Name)
			}
		}
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			pos := pass.Fset.Position(lit.Pos())
			if hotTypes[expectedNamedType(pass.TypesInfo, lit, stack)] ||
				directiveLines[lineKey{pos.Filename, pos.Line}] || directiveLines[lineKey{pos.Filename, pos.Line - 1}] {
				addHot(lit.Body, "func literal")
			}
			return true
		})
	}
	// Nested literals inherit hotness.
	for i := 0; i < len(hot); i++ {
		h := hot[i]
		ast.Inspect(h.body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && !seen[lit.Body] {
				addHot(lit.Body, "func literal")
			}
			return true
		})
	}

	for _, h := range hot {
		checkBody(pass, h.body, h.name)
	}
	return nil
}

type lineKey struct {
	file string
	line int
}

// directiveLines records the file:line of every statement-level
// //nodb:hotpath comment.
func directiveLines(pass *analysis.Pass) map[lineKey]bool {
	out := make(map[lineKey]bool)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if analysis.HasDirective([]*ast.CommentGroup{{List: []*ast.Comment{c}}}, Directive) {
					pos := pass.Fset.Position(c.Pos())
					out[lineKey{pos.Filename, pos.Line}] = true
				}
			}
		}
	}
	return out
}

// hotFuncTypes collects the named func types whose declarations carry the
// directive.
func hotFuncTypes(pass *analysis.Pass) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !analysis.HasDirective([]*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment}, Directive) {
					continue
				}
				if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					if _, isSig := tn.Type().Underlying().(*types.Signature); isSig {
						out[tn] = true
					}
				}
			}
		}
	}
	return out
}

// expectedNamedType resolves the named type a func literal is created as,
// from its syntactic context: return position, assignment, call argument
// or composite-literal element. Returns nil when untyped or unnamed.
func expectedNamedType(info *types.Info, lit *ast.FuncLit, stack []ast.Node) *types.TypeName {
	if len(stack) == 0 {
		return nil
	}
	named := func(t types.Type) *types.TypeName {
		if n, ok := t.(*types.Named); ok {
			if _, isSig := n.Underlying().(*types.Signature); isSig {
				return n.Obj()
			}
		}
		return nil
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.ReturnStmt:
		sig := enclosingSignature(info, stack)
		if sig == nil {
			return nil
		}
		for i, res := range p.Results {
			if res == lit && i < sig.Results().Len() {
				return named(sig.Results().At(i).Type())
			}
		}
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs == lit && i < len(p.Lhs) {
				if t := info.TypeOf(p.Lhs[i]); t != nil {
					return named(t)
				}
			}
		}
	case *ast.ValueSpec:
		if t := info.TypeOf(p.Type); t != nil {
			return named(t)
		}
	case *ast.CallExpr:
		if fnType, ok := info.Types[p.Fun]; ok && !fnType.IsType() {
			if sig, ok := fnType.Type.Underlying().(*types.Signature); ok {
				for i, arg := range p.Args {
					if arg != lit {
						continue
					}
					if sig.Variadic() && i >= sig.Params().Len()-1 {
						if sl, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
							return named(sl.Elem())
						}
					}
					if i < sig.Params().Len() {
						return named(sig.Params().At(i).Type())
					}
				}
			}
		}
		// Explicit conversion rawFilter(func(...){...}).
		if tv, ok := info.Types[p.Fun]; ok && tv.IsType() {
			return named(tv.Type)
		}
	case *ast.KeyValueExpr, *ast.CompositeLit:
		if t := info.TypeOf(lit); t != nil {
			// The literal's own type is its signature; fall back to the
			// composite element type.
		}
		if cl, ok := parent.(*ast.CompositeLit); ok {
			if t := info.TypeOf(cl); t != nil {
				switch u := t.Underlying().(type) {
				case *types.Slice:
					return named(u.Elem())
				case *types.Array:
					return named(u.Elem())
				case *types.Map:
					return named(u.Elem())
				}
			}
		}
	}
	return nil
}

// enclosingSignature finds the signature of the innermost enclosing
// function of the node at the top of stack.
func enclosingSignature(info *types.Info, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			if t := info.TypeOf(f); t != nil {
				if sig, ok := t.Underlying().(*types.Signature); ok {
					return sig
				}
			}
		case *ast.FuncDecl:
			if fn, ok := info.Defs[f.Name].(*types.Func); ok {
				return fn.Type().(*types.Signature)
			}
		}
	}
	return nil
}

// checkBody applies the hot-path rules to one function body, not
// descending into nested literals (they are checked as their own hot
// functions).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, name string) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkCapture(pass, body, lit)
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, body, n)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					checkConversion(pass, info.TypeOf(n.Lhs[i]), rhs)
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					checkConversion(pass, info.TypeOf(n.Type), v)
				}
			}
		case *ast.ReturnStmt:
			// Boxing on return is the callee's way of handing the value
			// on; returns are once-per-call, not per-row — skip, except
			// when returning into an `any`-typed result would hide a per
			// -row datum box. Returns stay exempt to keep the kernel
			// binder closures (return the compiled closure as an
			// interface-free named type) quiet.
		case *ast.SendStmt:
			if ch := info.TypeOf(n.Chan); ch != nil {
				if c, ok := ch.Underlying().(*types.Chan); ok {
					checkConversion(pass, c.Elem(), n.Value)
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch u := t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in hot path %s: map allocation per call; hoist it out of the hot path", name)
			case *types.Slice:
				for _, el := range n.Elts {
					checkConversion(pass, u.Elem(), el)
				}
			}
		}
		return true
	})
}

// checkCall handles make(map...), append sizing and argument boxing.
func checkCall(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr) {
	info := pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if len(call.Args) > 0 {
				if t := info.TypeOf(call.Args[0]); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(call.Pos(), "make(map) in hot path: map allocation per call; hoist it out of the hot path")
					}
				}
			}
			return
		case "append":
			checkAppend(pass, body, call)
			return
		}
	}
	// fmt.Errorf constructs the error that aborts the scan: exempt.
	if analysis.IsPkgFunc(info, call, "fmt", "Errorf") {
		return
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		// Conversion T(x): boxing when T is an interface.
		if ok && tv.IsType() && len(call.Args) == 1 {
			checkConversion(pass, tv.Type, call.Args[0])
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no element boxing
			}
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		checkConversion(pass, pt, arg)
	}
}

// checkConversion reports when expr, of concrete non-pointer type, is
// converted to an interface type target.
func checkConversion(pass *analysis.Pass, target types.Type, expr ast.Expr) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	st := pass.TypesInfo.TypeOf(expr)
	if st == nil || types.IsInterface(st.Underlying()) {
		return // interface-to-interface carries the existing box
	}
	if tv, ok := pass.TypesInfo.Types[expr]; ok && tv.IsNil() {
		return
	}
	switch st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: stored in the interface word, no alloc
	case *types.Basic:
		if st.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	if analysis.IsNamedType(st, "internal/datum", "Datum") {
		pass.Reportf(expr.Pos(), "datum.Datum boxed into %s in hot path: Datum is a value struct precisely so per-field access does not allocate; keep it unboxed", target.String())
		return
	}
	pass.Reportf(expr.Pos(), "interface conversion (%s to %s) in hot path: boxing allocates and adds dynamic dispatch per value", st.String(), target.String())
}

// checkCapture reports closures that capture an enclosing variable which
// is reassigned, forcing the variable to the heap.
func checkCapture(pass *analysis.Pass, enclosing *ast.BlockStmt, lit *ast.FuncLit) {
	info := pass.TypesInfo
	// Variables declared in the enclosing body, outside the literal.
	declared := make(map[types.Object]bool)
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if n == lit {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok && !v.IsField() {
				declared[v] = true
			}
		}
		return true
	})
	// Free variables of the literal among those.
	captured := make(map[types.Object]*ast.Ident)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && declared[obj] {
				if _, have := captured[obj]; !have {
					captured[obj] = id
				}
			}
		}
		return true
	})
	if len(captured) == 0 {
		return
	}
	// Reassignments anywhere in the enclosing body (including the
	// literal itself) make the capture by-reference.
	reassigned := make(map[types.Object]bool)
	ast.Inspect(enclosing, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil { // plain =, not :=
						reassigned[obj] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					reassigned[obj] = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						reassigned[obj] = true
					}
				}
			}
		}
		return true
	})
	for obj, id := range captured {
		if reassigned[obj] {
			pass.Reportf(lit.Pos(), "closure in hot path captures %s by reference (it is reassigned), forcing a heap-allocated variable and indirect access", id.Name)
		}
	}
}

// checkAppend reports append onto a slice this function created with no
// capacity: growth reallocates on the hot path.
func checkAppend(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return // fields and parameters: the caller owns the sizing
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	decl := localSliceDecl(pass, body, obj)
	if decl == nil {
		return
	}
	pass.Reportf(call.Pos(), "append to %s, declared at %s with no capacity: growth reallocates on the hot path; preallocate with make(..., 0, n) or reuse a caller-owned buffer", id.Name, pass.Fset.Position(decl.Pos()))
}

// localSliceDecl finds obj's declaration inside body and returns it when
// it provably has zero capacity: `var s []T`, `s := []T{}`, or
// `s := make([]T, 0)` with no capacity argument. Any other shape (make
// with length or capacity, literal with elements, parameter, outer
// scope) returns nil.
func localSliceDecl(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) ast.Node {
	info := pass.TypesInfo
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || info.Defs[id] != obj || i >= len(n.Rhs) {
					continue
				}
				if zeroCapSliceExpr(info, n.Rhs[i]) {
					found = n
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				if info.Defs[id] == obj && len(n.Values) == 0 {
					if t := obj.Type(); t != nil {
						if _, isSlice := t.Underlying().(*types.Slice); isSlice {
							found = n
						}
					}
				}
			}
		}
		return true
	})
	return found
}

func zeroCapSliceExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		if t := info.TypeOf(e); t != nil {
			if _, isSlice := t.Underlying().(*types.Slice); isSlice {
				return len(e.Elts) == 0
			}
		}
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) != 2 {
			return false // make with explicit capacity (3 args) is sized
		}
		if t := info.TypeOf(e.Args[0]); t != nil {
			if _, isSlice := t.Underlying().(*types.Slice); isSlice {
				if tv, ok := info.Types[e.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
					return true
				}
			}
		}
	}
	return false
}
