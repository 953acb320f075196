package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath enforces allocation hygiene on //spinnaker:hotpath functions
// — the submit/commit/append/codec paths PR 5 profiled down to their
// current allocs/op, statically complementing BENCHMARK.json's
// allocs_per_op bound. Inside an annotated function it flags:
//
//   - any call into package fmt (fmt.Errorf on a cold error branch
//     belongs in a non-annotated helper or behind a static error);
//   - function literals except immediately-invoked ones and locals
//     used only as direct call targets (escaping closures allocate
//     their captures);
//   - go/defer of a function literal (allocates, and go schedules);
//   - transient []byte↔string conversions inside loops: a conversion
//     whose result is stored (x := string(b), s.F = string(b), return)
//     is a deliberate copy and allowed, as are the compiler-optimized
//     idioms (map index, comparison, switch); a conversion passed
//     straight into a call re-allocates every iteration. Round-trip
//     conversions ([]byte(string(b))) are flagged everywhere;
//   - append targets in loops whose local declaration has no capacity
//     (var x []T / x := []T{} / make([]T, 0)): pre-size with
//     make(len, cap). Targets not declared locally (parameters,
//     fields) are trusted — the caller owns their capacity.
func hotpath(m *Module, idx *annIndex) []Finding {
	var out []Finding
	for _, pkg := range m.Pkgs() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil || !idx.byFunc[obj].Hotpath {
					continue
				}
				out = append(out, hotFunc(m, pkg, fd)...)
			}
		}
	}
	return out
}

func hotFunc(m *Module, pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding

	// Function literals used only as direct call targets of a local
	// variable don't escape; collect those variables first.
	calledOnlyLocals := localClosureCallTargets(pkg, fd)

	// Track loop nesting by position range.
	var loops []ast.Node
	inLoop := func(n ast.Node) bool {
		for _, l := range loops {
			if l.Pos() <= n.Pos() && n.End() <= l.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := calleeFunc(pkg.Info, n); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
				out = append(out, finding(m, "hotpath", n,
					"hot path calls fmt.%s (allocates and reflects); use a static error or move formatting off the hot path", f.Name()))
			}
			if conv, kind := byteStringConv(pkg.Info, n); conv {
				if rt := roundTripConv(pkg.Info, n); rt {
					out = append(out, finding(m, "hotpath", n,
						"%s round-trip conversion copies twice; restructure to keep one representation", kind))
				} else if inLoop(n) && transientConv(pkg.Info, fd, n) {
					out = append(out, finding(m, "hotpath", n,
						"transient %s conversion inside a loop allocates per iteration; hoist it, store it, or use a byte-oriented API", kind))
				}
			}
			if isAppendCall(pkg.Info, n) && inLoop(n) && len(n.Args) > 0 {
				if tgt, bad := unsizedAppendTarget(pkg, fd, n); bad {
					out = append(out, finding(m, "hotpath", n,
						"append to %q in a loop, but its declaration has no capacity; pre-size with make(..., 0, n) (PR 5: growth re-allocations dominated the profile)", tgt))
				}
			}
		case *ast.FuncLit:
			if closureEscapes(pkg, fd, n, calledOnlyLocals) {
				out = append(out, finding(m, "hotpath", n,
					"function literal escapes the hot path (allocates its captures); hoist it or restructure without a closure"))
			}
			return false // nested literals judged with their parent
		}
		return true
	})
	return out
}

// localClosureCallTargets finds local variables assigned exactly one
// function literal and used only as direct call targets — those
// closures stay on the stack.
func localClosureCallTargets(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	assigned := map[types.Object]*ast.FuncLit{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit)
			if !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pkg.Info.Defs[id]; obj != nil {
				assigned[obj] = lit
			}
		}
		return true
	})
	ok := map[types.Object]bool{}
	for obj := range assigned {
		ok[obj] = true
	}
	// A use anywhere other than call-target position disqualifies.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if isCall {
			if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID {
				if obj := pkg.Info.Uses[id]; obj != nil && ok[obj] {
					// Direct call: fine. Skip the Fun ident, walk args.
					for _, a := range call.Args {
						ast.Inspect(a, disqualify(pkg, ok))
					}
					return false
				}
			}
		}
		if id, isID := n.(*ast.Ident); isID {
			if obj := pkg.Info.Uses[id]; obj != nil {
				if _, tracked := assigned[obj]; tracked {
					// Used outside a direct call.
					ok[obj] = false
				}
			}
		}
		return true
	})
	return ok
}

func disqualify(pkg *Package, ok map[types.Object]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if id, isID := n.(*ast.Ident); isID {
			if obj := pkg.Info.Uses[id]; obj != nil {
				if _, tracked := ok[obj]; tracked {
					ok[obj] = false
				}
			}
		}
		return true
	}
}

// closureEscapes decides whether a function literal in a hot function
// allocates: immediately-invoked literals and literals bound to
// call-only locals do not.
func closureEscapes(pkg *Package, fd *ast.FuncDecl, lit *ast.FuncLit, calledOnly map[types.Object]bool) bool {
	path := nodePath(fd, lit)
	if len(path) < 2 {
		return true
	}
	parent := path[len(path)-2]
	switch p := parent.(type) {
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == lit {
			return false // immediately invoked
		}
		return true // passed as an argument
	case *ast.AssignStmt:
		for i, r := range p.Rhs {
			if ast.Unparen(r) == lit && i < len(p.Lhs) {
				if id, ok := p.Lhs[i].(*ast.Ident); ok {
					if obj := pkg.Info.Defs[id]; obj != nil && calledOnly[obj] {
						return false
					}
				}
			}
		}
		return true
	case *ast.GoStmt, *ast.DeferStmt:
		return true
	}
	return true
}

// nodePath returns the ancestor chain from fd down to target.
func nodePath(fd *ast.FuncDecl, target ast.Node) []ast.Node {
	var path, found []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		path = append(path, n)
		if n == target {
			found = append([]ast.Node(nil), path...)
			return false
		}
		return true
	})
	return found
}

// byteStringConv recognizes string([]byte) and []byte(string)
// conversions.
func byteStringConv(info *types.Info, call *ast.CallExpr) (bool, string) {
	if len(call.Args) != 1 {
		return false, ""
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false, ""
	}
	to := tv.Type.Underlying()
	from, ok := info.Types[call.Args[0]]
	if !ok {
		return false, ""
	}
	if isString(to) && isByteSlice(from.Type.Underlying()) {
		return true, "[]byte→string"
	}
	if isByteSlice(to) && isString(from.Type.Underlying()) {
		return true, "string→[]byte"
	}
	return false, ""
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.String
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// roundTripConv reports string([]byte(x)) / []byte(string(x)).
func roundTripConv(info *types.Info, call *ast.CallExpr) bool {
	inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	conv, _ := byteStringConv(info, inner)
	return conv
}

// transientConv reports whether a conversion's result is consumed
// without being stored: conversions feeding an assignment, composite
// literal, return, map index, comparison, or switch are deliberate (or
// compiler-optimized); a conversion passed directly as a call argument
// re-allocates on every evaluation.
func transientConv(info *types.Info, fd *ast.FuncDecl, conv *ast.CallExpr) bool {
	path := nodePath(fd, conv)
	if len(path) < 2 {
		return false
	}
	parent := path[len(path)-2]
	switch p := parent.(type) {
	case *ast.CallExpr:
		return true // argument to another call
	case *ast.IndexExpr:
		return false // map[string(b)] — optimized, no allocation
	case *ast.BinaryExpr:
		switch p.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return false // comparison — optimized
		}
		return true // concatenation etc. in a loop
	default:
		return false // stored, returned, switched on, ...
	}
}

func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// unsizedAppendTarget reports whether an in-loop append's target is a
// local declared without capacity. Returns the target name and whether
// to flag.
func unsizedAppendTarget(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr) (string, bool) {
	tgt, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return "", false // x.field = append(x.field, ...): caller-owned
	}
	obj := pkg.Info.Uses[tgt]
	if obj == nil || !objIsLocal(obj, fd) {
		return "", false
	}
	// Find the declaration/initialization of obj within fd.
	flag := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || pkg.Info.Defs[id] != obj || i >= len(n.Rhs) {
					continue
				}
				flag = unsizedInit(pkg.Info, n.Rhs[i])
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if pkg.Info.Defs[name] != obj {
						continue
					}
					if len(vs.Values) == 0 {
						flag = true // var x []T
					} else if i < len(vs.Values) {
						flag = unsizedInit(pkg.Info, vs.Values[i])
					}
				}
			}
		}
		return true
	})
	return tgt.Name, flag
}

// unsizedInit reports whether a slice initializer carries no useful
// capacity: empty composite literals and 2-arg make. Initializers we
// cannot judge (calls, other variables) are trusted.
func unsizedInit(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "make" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return len(e.Args) < 3
			}
		}
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}
