package analysis

import (
	"go/ast"
	"go/types"
)

// aliascheck enforces the zero-copy contracts of PR 5's allocation-free
// replication path:
//
//   - Callers of //spinnaker:aliases producers (decodeWrite,
//     decodeProposeBatch, decodeGetReq) receive values that alias the
//     input buffer. decodeWrite's pending write also keeps the whole
//     payload as its raw bytes, which the leader logs and proposes as
//     received.
//     Within the calling function, every value derived from such a call
//     is read-only: storing through it (x.F = v, x[i] = v) or appending
//     to a slice rooted at it is a finding. Passing the value onward is
//     allowed — the payload is immutable post-encode, so retention is
//     safe; mutation is what corrupts a buffer other code still reads.
//
//   - Bodies of //spinnaker:noretain functions borrow their byte-slice
//     parameters (pooled WAL encode scratch): the parameter may be read
//     and its contents copied (append(dst, p...), copy(dst, p)), but
//     the slice itself must not outlive the call — no stores into
//     struct fields, package variables, maps, slices-of-slices, or
//     channels, no capture by a function literal, and no returning it.
//
// Both checks are intra-procedural and identifier-rooted: a tainted
// value assigned to a new local taints that local too.
func aliascheck(m *Module, idx *annIndex) []Finding {
	var out []Finding
	for _, pkg := range m.Pkgs() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, aliasCallers(m, pkg, fd, idx)...)
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj != nil && idx.byFunc[obj].Noretain {
					out = append(out, noretainBody(m, pkg, fd)...)
				}
			}
		}
	}
	return out
}

// aliasCallers checks one function's use of //spinnaker:aliases
// producers.
func aliasCallers(m *Module, pkg *Package, fd *ast.FuncDecl, idx *annIndex) []Finding {
	// Pass 1: find locals bound to results of aliasing producers, then
	// propagate through plain assignments (x := tainted; y := x.F).
	tainted := map[types.Object]string{} // object → producer name
	bind := func(lhs []ast.Expr, producer string) {
		for _, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pkg.Info.Defs[id]
			if obj == nil {
				obj = pkg.Info.Uses[id]
			}
			if obj != nil {
				if _, isErr := obj.Type().Underlying().(*types.Interface); isErr {
					continue // error results carry no aliased bytes
				}
				tainted[obj] = producer
			}
		}
	}
	for changed := true; changed; {
		changed = false
		before := len(tainted)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Rhs) == 1 {
				if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					if f := calleeFunc(pkg.Info, call); f != nil && idx.byFunc[f].Aliases {
						bind(as.Lhs, f.Name())
						return true
					}
				}
			}
			// Propagate: lhs_i := rhs_i where rhs_i is rooted at a
			// tainted object.
			if len(as.Lhs) == len(as.Rhs) {
				for i := range as.Rhs {
					if root := rootObj(pkg.Info, as.Rhs[i]); root != nil {
						if producer, ok := tainted[root]; ok {
							bind(as.Lhs[i:i+1], producer)
						}
					}
				}
			}
			return true
		})
		changed = len(tainted) > before
	}
	if len(tainted) == 0 {
		return nil
	}
	// Pass 2: flag mutations of tainted values.
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				switch l.(type) {
				case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
					if root := rootObj(pkg.Info, l); root != nil {
						if producer, ok := tainted[root]; ok {
							out = append(out, finding(m, "aliascheck", l,
								"store through %q, which aliases the input buffer of %s: decoded-shared values are read-only", rootName(l), producer))
						}
					}
				}
			}
		case *ast.IncDecStmt:
			switch n.X.(type) {
			case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
				if root := rootObj(pkg.Info, n.X); root != nil {
					if producer, ok := tainted[root]; ok {
						out = append(out, finding(m, "aliascheck", n,
							"mutation of %q, which aliases the input buffer of %s", rootName(n.X), producer))
					}
				}
			}
		case *ast.CallExpr:
			if isAppendCall(pkg.Info, n) {
				// append's first argument rooted at a tainted object
				// writes into (or re-slices past) the aliased buffer.
				if len(n.Args) > 0 {
					if root := rootObj(pkg.Info, n.Args[0]); root != nil {
						if producer, ok := tainted[root]; ok {
							out = append(out, finding(m, "aliascheck", n,
								"append to a slice aliasing the input buffer of %s (may write into shared bytes); copy first", producer))
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// noretainBody checks a //spinnaker:noretain function body.
func noretainBody(m *Module, pkg *Package, fd *ast.FuncDecl) []Finding {
	// Borrowed objects: every parameter of (underlying) slice type,
	// plus locals derived from them by plain assignment or re-slicing.
	borrowed := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				if _, ok := obj.Type().Underlying().(*types.Slice); ok {
					borrowed[obj] = true
				}
			}
		}
	}
	if len(borrowed) == 0 {
		return nil
	}
	for changed := true; changed; {
		n0 := len(borrowed)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Rhs {
				root := rootObj(pkg.Info, as.Rhs[i])
				if root == nil || !borrowed[root] {
					continue
				}
				// Content copies (append spread / explicit copy) are
				// handled at the use sites below; here only direct
				// bindings propagate the borrow.
				switch ast.Unparen(as.Rhs[i]).(type) {
				case *ast.Ident, *ast.SliceExpr:
					if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						if obj := pkg.Info.Defs[id]; obj != nil {
							borrowed[obj] = true
						} else if obj := pkg.Info.Uses[id]; obj != nil && objIsLocal(obj, fd) {
							borrowed[obj] = true
						}
					}
				}
			}
			return true
		})
		changed = len(borrowed) > n0
	}

	var out []Finding
	flag := func(at ast.Node, what string) {
		out = append(out, finding(m, "aliascheck", at,
			"%s retains a borrowed (pooled) byte slice past %s's return; the pool will reuse it — copy the bytes instead", what, fd.Name.Name))
	}
	isBorrowedExpr := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		switch e := e.(type) {
		case *ast.Ident:
			obj := pkg.Info.Uses[e]
			return obj != nil && borrowed[obj]
		case *ast.SliceExpr:
			root := rootObj(pkg.Info, e)
			return root != nil && borrowed[root]
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := range n.Rhs {
				if i >= len(n.Lhs) || !isBorrowedExpr(n.Rhs[i]) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.Ident:
					// Local rebinding is fine (handled in propagation);
					// assignment to a package-level var retains.
					if obj := pkg.Info.Uses[lhs]; obj != nil && !objIsLocal(obj, fd) {
						flag(n, "assignment to package-level variable")
					}
				case *ast.SelectorExpr:
					flag(n, "store into a struct field")
				case *ast.IndexExpr:
					flag(n, "store into a map or slice element")
				case *ast.StarExpr:
					flag(n, "store through a pointer")
				}
			}
		case *ast.SendStmt:
			if isBorrowedExpr(n.Value) {
				flag(n, "channel send")
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isBorrowedExpr(r) {
					flag(n, "return")
				}
			}
		case *ast.CallExpr:
			// append(container, p) retains p as an element; the spread
			// form append(dst, p...) copies contents and is fine.
			if isAppendCall(pkg.Info, n) {
				for i := 1; i < len(n.Args); i++ {
					if isBorrowedExpr(n.Args[i]) && !(i == len(n.Args)-1 && n.Ellipsis.IsValid()) {
						flag(n, "append as an element (slice-of-slices)")
					}
				}
			}
		case *ast.FuncLit:
			captures := false
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil && borrowed[obj] {
						captures = true
					}
				}
				return !captures
			})
			if captures {
				flag(n, "capture by a function literal")
			}
			return false // don't double-report stores inside the literal
		}
		return true
	})
	return out
}

// rootObj walks selector/index/slice/star/paren chains to the rooted
// identifier's object; nil when the root is not a plain identifier.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X // &x roots at x: a pointer into a tainted value is tainted
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func rootName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return "?"
		}
	}
}

// objIsLocal reports whether obj is declared inside fd (parameter,
// result, or body local) as opposed to package scope.
func objIsLocal(obj types.Object, fd *ast.FuncDecl) bool {
	return obj.Pkg() != nil && fd.Pos() <= obj.Pos() && obj.Pos() <= fd.End()
}
