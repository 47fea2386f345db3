// Package seedflow protects the repository's single stream-derivation
// rule: every generator seed is StreamSeed(root, i).
//
// Sharding, the content-addressed serve cache, checkpoint resume and
// per-replicate scheduling all assume that the generator consumed by
// (replicate i, agent j) is a pure function of (root seed, stream
// index) — never of scheduling, and never of an ad-hoc arithmetic
// mangle whose cross-stream decorrelation nobody has argued. seedflow
// flags seed derivations that bypass the documented constructors:
//
//   - rng.SplitMix64 calls outside internal/rng — raw derivation; use
//     rng.StreamSeed or rng.NewFrom;
//   - rng.New(x), (*rng.Source).Reseed(x) and (*rng.Streams).Seed(x, …)
//     (which seeds stream j from StreamSeed(x, j+1)) where x does not
//     visibly flow from rng.StreamSeed: accepted are direct StreamSeed
//     calls, locals assigned from accepted expressions, and parameters,
//     fields or variables whose name contains "seed" (their derivation
//     is checked at the caller's own construction site).
//
// Anything else — literals, arithmetic on seeds (seed ^ 0xdead),
// foreign function results — is a diagnostic, answerable with
// //fet:allow seedflow: <reason> when a legacy stream is pinned by
// recorded experiments.
package seedflow

import (
	"go/ast"
	"go/types"
	"strings"

	"passivespread/internal/analysis/fwk"
)

// Analyzer is the seedflow pass.
var Analyzer = &fwk.Analyzer{
	Name: "seedflow",
	Doc:  "require generator seeds to flow from rng.StreamSeed / documented stream constructors",
	Run:  run,
}

// isRNGPkg matches the real internal/rng package and its testdata
// stub.
func isRNGPkg(path string) bool { return fwk.PathTail(path, "rng") }

func run(pass *fwk.Pass) error {
	if isRNGPkg(pass.Pkg.Path()) {
		return nil // the constructors themselves live here
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *fwk.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := fwk.FuncFor(pass.TypesInfo, call)
		if callee == nil || !isRNGPkg(fwk.PkgPath(callee)) {
			return true
		}
		switch callee.Name() {
		case "SplitMix64":
			pass.Reportf(call.Pos(),
				"raw rng.SplitMix64 outside internal/rng: derive child streams with rng.StreamSeed or rng.NewFrom")
		case "New", "Reseed", "Seed":
			// The seed is the first argument: Streams.Seed's root.
			if len(call.Args) == 0 || callee.Name() == "Seed" && !isStreamsMethod(callee) {
				return true
			}
			if !seedPure(pass, fn, call.Args[0], nil) {
				pass.Reportf(call.Args[0].Pos(),
					"seed argument to rng.%s does not flow from rng.StreamSeed: ad-hoc derivations break the per-stream decorrelation contract (use rng.NewFrom or rng.StreamSeed)",
					callee.Name())
			}
		}
		return true
	})
}

// isStreamsMethod reports whether fn is a method of rng.Streams.
func isStreamsMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Streams"
}

// seedPure reports whether expr visibly derives from the stream
// contract: a direct StreamSeed call, a name carrying "seed" (the
// caller's derivation site is checked in its own package), or a local
// whose every assignment in fn is itself seed-pure.
func seedPure(pass *fwk.Pass, fn *ast.FuncDecl, expr ast.Expr, visiting map[types.Object]bool) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		callee := fwk.FuncFor(pass.TypesInfo, e)
		if callee != nil && isRNGPkg(fwk.PkgPath(callee)) && callee.Name() == "StreamSeed" {
			return true
		}
		return false
	case *ast.Ident:
		if namesSeed(e.Name) {
			return true
		}
		return localSeedPure(pass, fn, e, visiting)
	case *ast.SelectorExpr:
		return namesSeed(e.Sel.Name)
	default:
		return false
	}
}

func namesSeed(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// localSeedPure scans fn for assignments and declarations of id and
// accepts id only if at least one assignment exists and all of them
// are seed-pure.
func localSeedPure(pass *fwk.Pass, fn *ast.FuncDecl, id *ast.Ident, visiting map[types.Object]bool) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	if visiting == nil {
		visiting = map[types.Object]bool{}
	}
	if visiting[obj] {
		return false // self-referential chain: nothing proven
	}
	visiting[obj] = true
	defer delete(visiting, obj)
	pure := true
	assigned := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || i >= len(node.Rhs) {
					continue
				}
				if pass.TypesInfo.Defs[lid] == obj || pass.TypesInfo.Uses[lid] == obj {
					assigned = true
					if !seedPure(pass, fn, node.Rhs[i], visiting) {
						pure = false
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range node.Names {
				if pass.TypesInfo.Defs[name] == obj && i < len(node.Values) {
					assigned = true
					if !seedPure(pass, fn, node.Values[i], visiting) {
						pure = false
					}
				}
			}
		}
		return true
	})
	return assigned && pure
}
