// Package mapiter flags `for range` loops over map types inside the
// deterministic packages. Go randomizes map iteration order, so any
// order-dependent effect in such a loop breaks the repo's equal-seeds ⇒
// bit-identical-results invariant.
//
// A map range is accepted without a waiver when its body is provably
// order-independent:
//
//   - writes land in key-addressed cells (map or slice index expressions),
//     so each iteration touches its own slot;
//   - integer accumulation (+=, counters), which is exact and commutative —
//     unlike floating-point accumulation, which is flagged;
//   - values are collected with `s = append(s, …)` into a slice that feeds a
//     sort call later in the same function (the canonicalize-then-use idiom);
//   - early exits whose results do not depend on the iteration variables
//     (existence checks returning constants).
//
// Anything else needs `//trustlint:ordered <reason>` on the `for` line or
// the line above it.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the mapiter pass.
var Analyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc:  "flag order-dependent iteration over maps in deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.IsDeterministic(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.SourceFiles() {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapExpr(pass, rs.X) {
				return true
			}
			checkRange(pass, rs, enclosingFuncBody(stack))
			return true
		})
	}
	return nil, nil
}

func isMapExpr(pass *analysis.Pass, x ast.Expr) bool {
	t := pass.TypesInfo.Types[x].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// enclosingFuncBody returns the body of the innermost function on the node
// stack (excluding the top node itself), used to look for sort calls that
// follow the range statement.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	if analysis.Suppressed(pass, rs.For, analysis.WaiverOrdered) {
		return
	}
	c := &checker{
		pass:   pass,
		sorted: sortTargetsAfter(pass, fnBody, rs.End()),
		locals: make(map[types.Object]bool),
	}
	// The iteration variables are order-local: fresh each iteration.
	for _, v := range [2]ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				c.locals[obj] = true
			}
		}
	}
	if why := c.classify(rs.Body.List); why != "" {
		pass.Reportf(rs.For, "iteration over map %s is order-dependent (%s); sort before use, make the body order-independent, or annotate //trustlint:ordered <reason>",
			types.ExprString(rs.X), why)
	}
}

// sortTargetsAfter collects the printed form of every expression passed as
// the first argument to a sort.* / slices.Sort* call positioned after `after`
// in the enclosing function, including the operand of an `sort.Sort(byX(s))`
// conversion. An append sink matching one of these is the blessed
// collect-then-canonicalize idiom.
func sortTargetsAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, after token.Pos) map[string]bool {
	targets := make(map[string]bool)
	if fnBody == nil {
		return targets
	}
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || len(call.Args) == 0 {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		arg := call.Args[0]
		targets[types.ExprString(arg)] = true
		// sort.Sort(byScore(keys)): unwrap the conversion to reach keys.
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			targets[types.ExprString(conv.Args[0])] = true
		}
		return true
	})
	return targets
}

var sortFuncs = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Ints": true, "Float64s": true, "Strings": true,
	"SortFunc": true, "SortStableFunc": true, "Sorted": true, "SortedFunc": true,
}

func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !sortFuncs[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "sort" || path == "slices"
}

// checker classifies the statements of one map-range body. classify returns
// "" when every effect is order-independent, else a short description of the
// first order-dependent effect found.
type checker struct {
	pass   *analysis.Pass
	sorted map[string]bool
	// locals are objects scoped to the loop body (iteration variables and
	// body-declared names): plain assignment to them is order-local.
	locals map[types.Object]bool
}

func (c *checker) classify(stmts []ast.Stmt) string {
	for _, stmt := range stmts {
		if why := c.classifyStmt(stmt); why != "" {
			return why
		}
	}
	return ""
}

func (c *checker) classifyStmt(stmt ast.Stmt) string {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		return c.classifyAssign(s)
	case *ast.IncDecStmt:
		if isIntegerType(c.pass, s.X) {
			return "" // exact commutative counter
		}
		return "non-integer " + s.Tok.String() + " on " + types.ExprString(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
							c.locals[obj] = true
						}
					}
				}
			}
		}
		return ""
	case *ast.ExprStmt:
		return c.classifyCallStmt(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			if why := c.classifyStmt(s.Init); why != "" {
				return why
			}
		}
		if why := c.classify(s.Body.List); why != "" {
			return why
		}
		if s.Else != nil {
			return c.classifyStmt(s.Else)
		}
		return ""
	case *ast.BlockStmt:
		return c.classify(s.List)
	case *ast.ForStmt:
		return c.classify(s.Body.List)
	case *ast.RangeStmt:
		// A nested range over a map is checked as its own statement by the
		// outer walk; don't double-report, but do vet the body's effects on
		// the outer loop's behalf.
		for _, v := range [2]ast.Expr{s.Key, s.Value} {
			if id, ok := v.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		return c.classify(s.Body.List)
	case *ast.SwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				if why := c.classify(cc.Body); why != "" {
					return why
				}
			}
		}
		return ""
	case *ast.BranchStmt:
		return "" // break/continue don't observe order by themselves
	case *ast.ReturnStmt:
		// Early exit is order-independent only if the returned values don't
		// depend on which iteration triggered it.
		for _, res := range s.Results {
			if c.referencesLocal(res) {
				return "returns a value derived from the iteration variable"
			}
		}
		return ""
	default:
		return "statement with order-dependent effects"
	}
}

func (c *checker) classifyAssign(s *ast.AssignStmt) string {
	switch s.Tok {
	case token.DEFINE:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		return ""
	case token.ASSIGN:
		for i, lhs := range s.Lhs {
			if why := c.classifyPlainTarget(s, i, lhs); why != "" {
				return why
			}
		}
		return ""
	default: // compound: x op= y
		lhs := s.Lhs[0]
		if isIntegerType(c.pass, lhs) {
			return "" // exact commutative accumulation
		}
		// out[k] += v where k is the iteration key: the map yields each key
		// once, so every cell folds exactly one contribution — no ordering.
		if ix, ok := lhs.(*ast.IndexExpr); ok && c.referencesLocal(ix.Index) {
			return ""
		}
		return "order-dependent accumulation into " + types.ExprString(lhs)
	}
}

func (c *checker) classifyPlainTarget(s *ast.AssignStmt, i int, lhs ast.Expr) string {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" || c.locals[c.pass.TypesInfo.Uses[l]] {
			return ""
		}
		// `found = true`: every iteration that executes the assignment
		// stores the same iteration-independent value, so order is moot —
		// but only when the value isn't an append (handled below).
		if len(s.Lhs) == len(s.Rhs) {
			if call, ok := s.Rhs[i].(*ast.CallExpr); !ok || !isAppend(call) {
				if !c.referencesLocal(s.Rhs[i]) {
					return ""
				}
			}
		}
	case *ast.IndexExpr:
		// Key-addressed write: each iteration owns its own cell. (Writing
		// the same key from two iterations would be order-dependent, but a
		// map range yields each key once.)
		return ""
	}
	// `s = append(s, …)` collecting into a slice that is sorted afterwards
	// is the blessed canonicalize idiom.
	if len(s.Lhs) == len(s.Rhs) {
		if call, ok := s.Rhs[i].(*ast.CallExpr); ok {
			if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "append" && len(call.Args) > 0 &&
				types.ExprString(call.Args[0]) == types.ExprString(lhs) {
				if c.sorted[types.ExprString(lhs)] {
					return ""
				}
				return "appends to " + types.ExprString(lhs) + " which is never sorted before use"
			}
		}
	}
	return "assigns to " + types.ExprString(lhs) + " outside the loop scope"
}

func isAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

func (c *checker) classifyCallStmt(x ast.Expr) string {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return "statement with order-dependent effects"
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "delete" {
			return "" // delete(m, k): key-addressed, order-independent
		}
	}
	return "calls " + types.ExprString(call.Fun) + " whose effects may be order-dependent"
}

// referencesLocal reports whether the expression mentions an iteration
// variable or a body-declared local.
func (c *checker) referencesLocal(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c.locals[c.pass.TypesInfo.Uses[id]] {
				found = true
			}
		}
		return !found
	})
	return found
}

func isIntegerType(pass *analysis.Pass, x ast.Expr) bool {
	t := pass.TypesInfo.Types[x].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
