package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/lint/analysis"
)

// WallTime forbids reading the host clock inside the simulator's
// deterministic packages. The kernel provides virtual time only; a
// single time.Now smuggled into a scheduling path shows up three PRs
// later as a golden diff nobody can bisect. No simulator package reads
// the clock today (host time is measured by dmrbench, outside the
// module). A future exemption must carry a //simcheck:allow walltime
// annotation, and the analyzer additionally checks that an allowed
// wall-clock value can flow only into other (allowed) time calls or
// into a telemetry.Prof-style observation.
var WallTime = &analysis.Analyzer{
	Name: "walltime",
	Doc: `walltime: forbid wall-clock reads in deterministic packages

Flags any use of time.Now, time.Since, time.Until, time.Sleep,
time.After, time.AfterFunc, time.Tick, time.NewTicker or time.NewTimer
in repro/internal/... packages. Escape hatch:

	//simcheck:allow walltime <reason>

on the same line or the line above. A variable bound to an allowed
wall-clock call is then tracked through the enclosing function: each
use must be an argument to another time-package call, a time-package
method on the value itself, or an argument to a method on a
repro/internal/telemetry value whose receiver names the profiling
registry (matches prof/wall), so host timing can only land in
telemetry.Prof, never in a deterministic artifact.`,
	Run: runWallTime,
}

// wallFuncs are the package-level time functions that read the host
// clock or start host timers. Pure conversions/constructors (time.Date,
// time.Duration arithmetic, time.Unix) are not wall reads and are left
// to the simtime analyzer where they cross into sim.Time.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
}

// profRecv matches receiver expressions that conventionally denote a
// wall-clock profiling registry or an instrument created from one (a
// field named Prof, passWall, ...). The simulator itself has none; the
// rule keeps the shape checkable should one return.
var profRecv = regexp.MustCompile(`(?i)(prof|wall)`)

func runWallTime(pass *analysis.Pass) (any, error) {
	if !deterministicPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		allows := collectAllows(pass, file, true)
		parents := buildParents(file)

		// Pass 1: every wall-clock reference must be allowed.
		allowedCalls := make(map[*ast.CallExpr]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" || !wallFuncs[obj.Name()] {
				return true
			}
			if !allows.allowed(pass.Analyzer.Name, sel.Pos()) {
				pass.Reportf(sel.Pos(), "wall-clock call time.%s in deterministic package %s (use sim.Time via the kernel, or annotate: %s %s <reason>)",
					obj.Name(), pass.Pkg.Path(), allowPrefix, pass.Analyzer.Name)
				return true
			}
			if call, ok := parents[sel].(*ast.CallExpr); ok && call.Fun == sel {
				allowedCalls[call] = true
			}
			return true
		})

		// Pass 2: values bound to allowed wall calls may flow only
		// into other time calls or Prof-style telemetry observations.
		for call := range allowedCalls {
			checkWallFlow(pass, parents, call)
		}
	}
	return nil, nil
}

// checkWallFlow tracks the variable (if any) directly assigned from an
// allowed wall-clock call and vets every subsequent use inside the
// enclosing function.
func checkWallFlow(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	assign, ok := parents[call].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Rhs[0] != call {
		return // result consumed inline; pass 1 vetted the consumer line
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	body := enclosingFunc(parents, call)
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		use, ok := n.(*ast.Ident)
		if !ok || use == id || pass.TypesInfo.Uses[use] != obj {
			return true
		}
		if !wallUseOK(pass, parents, use) {
			pass.Reportf(use.Pos(), "wall-clock value %s escapes the telemetry.Prof quarantine: uses may only feed time calls or a prof/wall telemetry observation", id.Name)
		}
		return true
	})
}

// wallUseOK reports whether one use of a tracked wall-clock variable is
// a sanctioned shape. The value may flow through any chain of time
// package calls (time.Since(v), v.Sub(u), v.Seconds()); the chain must
// then terminate either in a method call on a telemetry value whose
// receiver names the profiling side (prof/wall — so the observation
// lands in a profiling registry, never in Reg or the trace), or,
// while still time-typed, in an assignment (the assignee is tracked in
// turn if its initializer is an allowed wall call). In the experiments
// reporting layer only, a fully converted scalar (e.g. .Seconds()) may
// also escape into the run report — wall throughput is the quantity
// those experiments exist to measure.
func wallUseOK(pass *analysis.Pass, parents map[ast.Node]ast.Node, use *ast.Ident) bool {
	strict := !strings.HasPrefix(pass.Pkg.Path(), modulePath+"/internal/experiments")
	var last ast.Expr = use
	sawTime := false
	for n := parents[ast.Node(use)]; n != nil; n = parents[n] {
		switch v := n.(type) {
		case *ast.SelectorExpr:
			last = v
			continue
		case *ast.ParenExpr:
			last = v
			continue
		case *ast.CallExpr:
			if isTimeCall(pass, v) {
				sawTime = true
				last = v
				continue
			}
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok &&
				recvTelemetry(pass, sel.X) && profRecv.MatchString(exprText(sel.X)) {
				return true
			}
			return false
		default:
			if !sawTime {
				return false // raw use: _ = v, struct fields, returns...
			}
			if _, ok := n.(*ast.AssignStmt); ok && isTimeTyped(pass.TypesInfo.TypeOf(last)) {
				return true // d := time.Since(v): d is tracked in turn
			}
			return !strict
		}
	}
	return false
}

// isTimeCall reports whether the call's callee is a function or method
// of the standard time package.
func isTimeCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn := pass.TypesInfo.Uses[sel.Sel]
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time"
}

// isTimeTyped reports whether t is a named type of the time package
// (time.Time, time.Duration).
func isTimeTyped(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

// recvTelemetry reports whether the expression's static type is (a
// pointer to) a named type declared in repro/internal/telemetry.
func recvTelemetry(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == modulePath+"/internal/telemetry"
}

// exprText flattens the identifiers of a receiver expression into one
// string for the prof/wall naming check ("tel.passWall" and friends).
func exprText(e ast.Expr) string {
	var parts []string
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			parts = append(parts, id.Name)
		}
		return true
	})
	return strings.Join(parts, ".")
}

// buildParents records each node's syntactic parent for one file.
func buildParents(file *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingFunc returns the body of the innermost function declaration
// or literal containing n, or nil at package scope.
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for ; n != nil; n = parents[n] {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}
