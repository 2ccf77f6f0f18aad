package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufPoolAnalyzer enforces the storage.GetBuf/PutBuf pairing contract.
// A buffer acquired from the pool must either be recycled with PutBuf
// in the same function or escape to a documented owner (returned,
// stored into a structure, sent on a channel, or handed to another
// function that takes it over). Three violation classes are reported:
//
//  1. a pooled buffer that is neither released nor handed off (the
//     pool silently degrades to plain allocation);
//  2. a return path between the acquisition and the first
//     release/handoff — the drop-on-error leak;
//  3. any use of a buffer after PutBuf returned it to the pool, where
//     a later GetBuf may hand the same memory to an unrelated caller.
//
// The replaced buffer an Adopt(key, buf) method returns (the snapshot
// store's zero-copy hand-off) is the caller's from then on, so it is
// tracked exactly like a buffer fresh from GetBuf.
var BufPoolAnalyzer = &Analyzer{
	Name: "bufpool",
	Doc: "flags storage.GetBuf/CopyBuf buffers that are never PutBuf-recycled or handed " +
		"off, buffers dropped on early returns, and uses of a buffer after PutBuf",
	Run: runBufPool,
}

// bufUse classifies one appearance of a tracked buffer variable.
// Kinds: "release" (PutBuf), "escape" (ownership leaves the function),
// "read" (local use), "reassign" (fresh lifetime).
type bufUse struct {
	kind string
	pos  token.Pos
}

// trackedBuf is one buffer variable under lifetime analysis.
type trackedBuf struct {
	obj types.Object
	// minted marks buffers created by GetBuf/CopyBuf in this function
	// (only those get leak-on-return verdicts; arbitrary PutBuf
	// arguments are tracked solely for use-after-put).
	minted bool
	// deferredRelease marks a `defer storage.PutBuf(b)`, which covers
	// every return path at once.
	deferredRelease bool
	defPos          token.Pos
	uses            []bufUse
}

func runBufPool(pass *Pass) {
	storagePath := pass.ModulePath + "/internal/storage"
	matches := func(obj types.Object, name string) bool {
		return isPkgFunc(obj, storagePath, name) ||
			(obj != nil && obj.Name() == name && obj.Pkg() == pass.Pkg && pass.Pkg.Path() == storagePath)
	}
	for _, fb := range functionBodies(pass.Files) {
		checkBufBody(pass, fb, matches)
	}
}

// putBufArg returns the ident argument of a storage.PutBuf call, or
// nil when the call is something else.
func putBufArg(info *types.Info, call *ast.CallExpr, matches func(types.Object, string) bool) *ast.Ident {
	if !matches(calleeObject(info, call), "PutBuf") || len(call.Args) != 1 {
		return nil
	}
	id, _ := ast.Unparen(call.Args[0]).(*ast.Ident)
	return id
}

func checkBufBody(pass *Pass, fb funcBody, matches func(types.Object, string) bool) {
	info := pass.Info
	byObj := make(map[types.Object]*trackedBuf)
	var bufs []*trackedBuf

	// Pass 1: discover tracked buffers — GetBuf/CopyBuf results bound
	// to a plain variable, plus every variable handed to PutBuf.
	walkBody(fb.body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			if len(stmt.Rhs) != 1 || len(stmt.Lhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(info, call)
			if !matches(obj, "GetBuf") && !matches(obj, "CopyBuf") && !isAdoptMethod(obj) {
				return true
			}
			id, ok := stmt.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			vobj := info.Defs[id]
			if vobj == nil {
				vobj = info.Uses[id]
			}
			if vobj == nil {
				return true
			}
			if t := byObj[vobj]; t != nil {
				t.uses = append(t.uses, bufUse{kind: "reassign", pos: id.Pos()})
				return true
			}
			t := &trackedBuf{obj: vobj, minted: true, defPos: id.Pos()}
			byObj[vobj] = t
			bufs = append(bufs, t)
		case *ast.CallExpr:
			if id := putBufArg(info, stmt, matches); id != nil {
				if vobj := info.Uses[id]; vobj != nil && byObj[vobj] == nil {
					t := &trackedBuf{obj: vobj, defPos: id.Pos()}
					byObj[vobj] = t
					bufs = append(bufs, t)
				}
			}
		}
		return true
	})
	if len(bufs) == 0 {
		return
	}

	record := func(id *ast.Ident, kind string) {
		vobj := info.Uses[id]
		if t := byObj[vobj]; t != nil {
			t.uses = append(t.uses, bufUse{kind: kind, pos: id.Pos()})
		}
	}
	// recordAll marks every tracked ident inside expr with kind.
	recordAll := func(expr ast.Node, kind string) {
		if expr == nil {
			return
		}
		ast.Inspect(expr, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := m.(*ast.Ident); ok {
				record(id, kind)
			}
			return true
		})
	}
	// recordCall classifies a call's arguments: PutBuf releases,
	// read-only builtins read, anything else takes ownership of plain
	// ident arguments.
	var recordCall func(call *ast.CallExpr, deferred bool)
	recordCall = func(call *ast.CallExpr, deferred bool) {
		if id := putBufArg(info, call, matches); id != nil {
			pos := id.Pos()
			if deferred {
				// A deferred PutBuf runs on every return path: model it
				// as a release at the end of the function.
				pos = fb.body.End()
			}
			if t := byObj[info.Uses[id]]; t != nil {
				t.uses = append(t.uses, bufUse{kind: "release", pos: pos})
				if deferred {
					t.deferredRelease = true
				}
			}
			return
		}
		readOnly := isReadOnlyBuiltin(calleeObject(info, call))
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && !readOnly {
				record(id, "escape")
				continue
			}
			if inner, ok := ast.Unparen(a).(*ast.CallExpr); ok {
				recordCall(inner, false)
				continue
			}
			recordAll(a, "read")
		}
		recordAll(call.Fun, "read")
	}

	// Pass 2: classify every use.
	walkBody(fb.body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range stmt.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					// Plain rebinding starts a fresh lifetime — but only
					// when the RHS is not the buffer itself (aliasing
					// `b2 := b` keeps b live through b2, treated as read).
					if info.Defs[id] != nil {
						continue // handled in pass 1 for GetBuf; alias defs read below
					}
					record(id, "reassign")
					continue
				}
				// Writing into a field/map/slice slot: the indexed
				// container is read; a tracked buffer as the *index* is
				// read too.
				recordAll(lhs, "read")
				// A tracked buffer assigned into a non-local lvalue is a
				// handoff.
				if len(stmt.Lhs) == len(stmt.Rhs) {
					if id, ok := ast.Unparen(stmt.Rhs[i]).(*ast.Ident); ok {
						record(id, "escape")
					}
				}
			}
			for _, rhs := range stmt.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					recordCall(call, false)
					continue
				}
				recordAll(rhs, "read")
			}
			return false
		case *ast.ReturnStmt:
			for _, r := range stmt.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok {
					record(id, "escape")
					continue
				}
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					recordCall(call, false)
					continue
				}
				recordAll(r, "escape")
			}
			return false
		case *ast.SendStmt:
			recordAll(stmt.Value, "escape")
			recordAll(stmt.Chan, "read")
			return false
		case *ast.DeferStmt:
			recordCall(stmt.Call, true)
			return false
		case *ast.GoStmt:
			// A buffer captured by a spawned call leaves this function's
			// custody.
			recordAll(stmt.Call, "escape")
			return false
		case *ast.CompositeLit:
			recordAll(stmt, "escape")
			return false
		case *ast.CallExpr:
			recordCall(stmt, false)
			return false
		case *ast.Ident:
			record(stmt, "read")
		}
		return true
	})

	// Verdicts.
	returns := returnPositions(fb.body)
	for _, t := range bufs {
		var firstOut token.Pos
		released := false
		for _, u := range t.uses {
			if u.kind == "release" || u.kind == "escape" {
				if firstOut == token.NoPos || u.pos < firstOut {
					firstOut = u.pos
				}
				released = released || u.kind == "release"
			}
		}
		name := t.obj.Name()
		if t.minted && firstOut == token.NoPos {
			pass.Reportf(t.defPos,
				"pooled buffer %s is never PutBuf-recycled or handed off — "+
					"the pool degrades to plain allocation; release it (defer storage.PutBuf(%s)) or pass it to its owner",
				name, name)
			continue
		}
		if t.minted && !t.deferredRelease {
			for _, rp := range returns {
				// Compare against the return's end so a buffer escaping
				// in the return's own results doesn't flag itself.
				if rp.start > t.defPos && rp.end < firstOut {
					pass.Reportf(rp.start,
						"pooled buffer %s leaks on this return path: PutBuf it (or hand it off) before returning",
						name)
				}
			}
		}
		if released {
			for _, rel := range t.uses {
				if rel.kind != "release" {
					continue
				}
				for _, u := range t.uses {
					if (u.kind == "read" || u.kind == "escape") && u.pos > rel.pos && !reboundBetween(t.uses, rel.pos, u.pos) {
						pass.Reportf(u.pos,
							"use of buffer %s after storage.PutBuf(%s) on line %d: the pool may have handed this memory to another caller",
							name, name, pass.Fset.Position(rel.pos).Line)
					}
				}
			}
		}
	}
}

// isAdoptMethod reports whether obj is an ownership hand-off method:
// Adopt(key string, buf []byte) []byte, which keeps buf without copying
// it and returns the buffer it replaced to the caller.
func isAdoptMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Adopt" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && sig.Params().Len() == 2 && sig.Results().Len() == 1 &&
		isByteSlice(sig.Params().At(1).Type()) && isByteSlice(sig.Results().At(0).Type())
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// reboundBetween reports whether the variable was reassigned strictly
// between two positions, which starts a fresh lifetime.
func reboundBetween(uses []bufUse, a, b token.Pos) bool {
	for _, u := range uses {
		if u.kind == "reassign" && u.pos > a && u.pos < b {
			return true
		}
	}
	return false
}

// returnSpan is one return statement's source extent.
type returnSpan struct{ start, end token.Pos }

// returnPositions lists the return statements of one body (not nested
// literals).
func returnPositions(body *ast.BlockStmt) []returnSpan {
	var out []returnSpan
	walkBody(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			out = append(out, returnSpan{r.Pos(), r.End()})
		}
		return true
	})
	return out
}

// isReadOnlyBuiltin reports whether a callee only reads its slice
// arguments (len/cap/copy/append/string conversions and print).
func isReadOnlyBuiltin(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if _, ok := obj.(*types.Builtin); !ok {
		return false
	}
	switch obj.Name() {
	case "len", "cap", "copy", "append", "print", "println":
		return true
	}
	return false
}
