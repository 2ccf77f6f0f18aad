package analysis

import (
	"go/ast"
	"go/types"
)

// calleeObject resolves the object a call expression invokes: a plain
// function, a method (through a selector), or nil for indirect calls
// through function values and type conversions.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the named function/method declared
// in the package with the given import path.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// funcBody is one analyzable function: a declaration or a literal.
// Analyzers treat each body independently — walks over a body never
// descend into nested function literals, which get bodies of their own.
type funcBody struct {
	// name is the declared name, or "func literal" for a FuncLit.
	name string
	decl *ast.FuncDecl // nil for literals
	body *ast.BlockStmt
}

// functionBodies collects every function body in the files, outermost
// first.
func functionBodies(files []*ast.File) []funcBody {
	var out []funcBody
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, funcBody{name: fn.Name.Name, decl: fn, body: fn.Body})
				}
			case *ast.FuncLit:
				out = append(out, funcBody{name: "func literal", body: fn.Body})
			}
			return true
		})
	}
	return out
}

// walkBody visits the nodes of one function body without descending
// into nested function literals (those are separate funcBody entries).
func walkBody(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return visit(n)
	})
}

// isErrorType reports whether t is the error interface (or an
// interface embedding exactly it, like the predeclared type itself).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
