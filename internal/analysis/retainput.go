package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RetainPutAnalyzer enforces the two sides of slice ownership around
// a store's write methods:
//
//  1. Put does not retain (storage.PersistStore's contract): a store
//     method Put(key string, data []byte) must not store the parameter
//     slice — data, or a subslice of it — into a field, map, slice
//     element, composite literal or channel. What a store keeps, it
//     copies (append([]byte(nil), data...), storage.CopyBuf, copy into a
//     fresh buffer); the caller reuses its buffer the moment Put returns.
//
//  2. Adopt(key, buf) is the named hand-off that does retain: the store
//     keeps buf itself, zero-copy, so an Adopt implementation may store
//     its input — and passing a buffer to Adopt is the last thing a
//     function does with it. No read, no write, no storage.PutBuf: the
//     buffer now lives in the store. A hand-off inside a return statement
//     exits at once and is not tracked; rebinding the variable ends it.
var RetainPutAnalyzer = &Analyzer{
	Name: "retainput",
	Doc: "flags Put implementations that retain their input slice without a copy, and " +
		"callers that reuse a buffer after handing it to Adopt",
	Run: runRetainPut,
}

func runRetainPut(pass *Pass) {
	for _, fb := range functionBodies(pass.Files) {
		checkPutRetention(pass, fb)
	}
	checkAdoptCallers(pass)
}

// putDataParam returns the []byte data parameter object when fb is a
// store's Put method: a method named Put with a (string, []byte)
// parameter list.
func putDataParam(pass *Pass, fb funcBody) types.Object {
	d := fb.decl
	if d == nil || d.Recv == nil || d.Name.Name != "Put" {
		return nil
	}
	params := d.Type.Params
	if params == nil {
		return nil
	}
	var objs []types.Object
	for _, field := range params.List {
		for _, name := range field.Names {
			objs = append(objs, pass.Info.Defs[name])
		}
	}
	if len(objs) != 2 || objs[0] == nil || objs[1] == nil {
		return nil
	}
	if b, ok := objs[0].Type().(*types.Basic); !ok || b.Kind() != types.String {
		return nil
	}
	sl, ok := objs[1].Type().(*types.Slice)
	if !ok {
		return nil
	}
	if b, ok := sl.Elem().(*types.Basic); !ok || b.Kind() != types.Byte && b.Kind() != types.Uint8 {
		return nil
	}
	return objs[1]
}

// refersToParam reports whether expr is the parameter itself or a
// subslice of it (p, p[i:j]) — the forms that alias the caller's
// backing array.
func refersToParam(info *types.Info, expr ast.Expr, param types.Object) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e] == param
	case *ast.SliceExpr:
		return refersToParam(info, e.X, param)
	}
	return false
}

// checkPutRetention flags assignments/sends that store the raw Put
// parameter into something that outlives the call.
func checkPutRetention(pass *Pass, fb funcBody) {
	param := putDataParam(pass, fb)
	if param == nil {
		return
	}
	report := func(pos token.Pos, how string) {
		pass.Reportf(pos,
			"%s retains its input slice (%s): Put must not retain data after it returns "+
				"(storage.PersistStore) — store a private copy (append([]byte(nil), %s...) or "+
				"storage.CopyBuf); the caller reuses the buffer at once",
			fb.name, how, param.Name())
	}
	// Retention via append(container, p): storing the slice header as
	// an element (no ...) aliases the caller's array.
	flagAppendRetention := func(call *ast.CallExpr) {
		obj := calleeObject(pass.Info, call)
		if b, ok := obj.(*types.Builtin); !ok || b.Name() != "append" {
			return
		}
		for i, a := range call.Args {
			if i == 0 {
				continue
			}
			if call.Ellipsis != token.NoPos && i == len(call.Args)-1 {
				continue // append(dst, p...) copies the bytes
			}
			if refersToParam(pass.Info, a, param) {
				report(a.Pos(), "appended as a slice element")
			}
		}
	}
	// Note: nested function literals are included here on purpose — a
	// closure stashing the parameter is still retention by the method.
	ast.Inspect(fb.body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				if i >= len(stmt.Lhs) {
					break
				}
				if !refersToParam(pass.Info, rhs, param) {
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
						flagAppendRetention(call)
					}
					continue
				}
				switch ast.Unparen(stmt.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					report(rhs.Pos(), "assigned to a field")
				case *ast.IndexExpr:
					report(rhs.Pos(), "stored into a map or slice element")
				}
			}
		case *ast.SendStmt:
			if refersToParam(pass.Info, stmt.Value, param) {
				report(stmt.Value.Pos(), "sent on a channel")
			}
		case *ast.CallExpr:
			flagAppendRetention(stmt)
		case *ast.CompositeLit:
			for _, el := range stmt.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if refersToParam(pass.Info, v, param) {
					report(v.Pos(), "captured in a composite literal")
				}
			}
		}
		return true
	})
}

// checkAdoptCallers flags functions that keep using a plain variable
// after passing it to Adopt (rule 2).
func checkAdoptCallers(pass *Pass) {
	info := pass.Info
	for _, fb := range functionBodies(pass.Files) {
		// Return-statement spans: an Adopt inside one exits the
		// function immediately.
		type span struct{ start, end token.Pos }
		var retSpans []span
		walkBody(fb.body, func(n ast.Node) bool {
			if r, ok := n.(*ast.ReturnStmt); ok {
				retSpans = append(retSpans, span{r.Pos(), r.End()})
			}
			return true
		})
		inReturn := func(pos token.Pos) bool {
			for _, s := range retSpans {
				if pos >= s.start && pos < s.end {
					return true
				}
			}
			return false
		}
		type handoff struct {
			obj types.Object
			pos token.Pos
		}
		var handoffs []handoff
		walkBody(fb.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isAdoptMethod(calleeObject(info, call)) || len(call.Args) != 2 || inReturn(call.Pos()) {
				return true
			}
			if id, ok := ast.Unparen(call.Args[1]).(*ast.Ident); ok {
				if vobj := info.Uses[id]; vobj != nil {
					handoffs = append(handoffs, handoff{obj: vobj, pos: call.End()})
				}
			}
			return true
		})
		if len(handoffs) == 0 {
			continue
		}
		walkBody(fb.body, func(n ast.Node) bool {
			// A rebinding after the handoff starts a fresh buffer; stop
			// tracking that object past its reassignment.
			if asg, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range asg.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						vobj := info.Uses[id]
						if vobj == nil {
							vobj = info.Defs[id]
						}
						for i := range handoffs {
							if handoffs[i].obj == vobj && id.Pos() > handoffs[i].pos {
								handoffs[i].obj = nil // lifetime over
							}
						}
					}
				}
				return true
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			vobj := info.Uses[id]
			if vobj == nil {
				return true
			}
			for _, h := range handoffs {
				if h.obj != vobj || id.Pos() <= h.pos {
					continue
				}
				pass.Reportf(id.Pos(),
					"%s is reused after being handed to Adopt on line %d: ownership transferred — "+
						"the store holds it; copy before the call or use Put",
					id.Name, pass.Fset.Position(h.pos).Line)
			}
			return true
		})
	}
}
