// Package rngmirror guards the exact-consumption contract around raw
// RNG stream access.
//
// The batched hot paths (rng.Batch, the graph observer's fused
// counting kernel, the trend executor's fused kernels and
// degenerate-round debt) are all mirrors:
// they must consume exactly the same
// number of stream outputs, in the same order, as the unbatched
// per-draw path they replace — otherwise every later draw of that
// stream diverges and the bit-identity gates fail far from the cause.
// The typed draw API (Intn, Float64, Bernoulli, Binomial, Batch)
// carries that accounting implicitly; raw access does not.
//
// rngmirror reports, outside internal/rng:
//
//   - calls to the raw-consumption kernels Source.Uint64, Fill,
//     Advance, CountPacked, CountPackedBlocks and Jump, and the stream
//     block's Streams.Advance, Seed, TrendWord, TrendWordGeneric and
//     CountRows. Every such site is a hand-maintained draw-count proof,
//     and must say so: //fet:allow rngmirror: <the accounting argument>.
//
// And inside internal/rng:
//
//   - raw-consumption kernels (Fill, Advance, CountPacked,
//     CountPackedBlocks, Seed, TrendWord, TrendWordGeneric, CountRows)
//     whose doc comment does not state their exact consumption (the
//     word "exactly") — the documentation the outside annotations lean
//     on.
package rngmirror

import (
	"go/ast"
	"go/types"
	"strings"

	"passivespread/internal/analysis/fwk"
)

// Analyzer is the rngmirror pass.
var Analyzer = &fwk.Analyzer{
	Name: "rngmirror",
	Doc:  "require documented exact-consumption accounting at every raw RNG stream access",
	Run:  run,
}

// rawMethods are, per rng receiver type, the methods that consume
// stream outputs without the typed draw API's implicit accounting:
// Source's single-stream kernels and the Streams block's bulk ones.
var rawMethods = map[string]map[string]bool{
	"Source": {
		"Uint64":            true,
		"Fill":              true,
		"Advance":           true,
		"CountPacked":       true,
		"CountPackedBlocks": true,
		"Jump":              true,
	},
	"Streams": {
		"Advance":          true,
		"Seed":             true,
		"TrendWord":        true,
		"TrendWordGeneric": true,
		"CountRows":        true,
	},
}

// documentedKernels must declare their exact consumption in their doc
// comment inside internal/rng.
var documentedKernels = map[string]bool{
	"Fill":              true,
	"Advance":           true,
	"CountPacked":       true,
	"CountPackedBlocks": true,
	"Seed":              true,
	"TrendWord":         true,
	"TrendWordGeneric":  true,
	"CountRows":         true,
}

func isRNGPkg(path string) bool { return fwk.PathTail(path, "rng") }

func run(pass *fwk.Pass) error {
	if isRNGPkg(pass.Pkg.Path()) {
		return checkKernelDocs(pass)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := fwk.FuncFor(pass.TypesInfo, call)
			if callee == nil || !isRNGPkg(fwk.PkgPath(callee)) {
				return true
			}
			recv := receiverName(callee)
			if !rawMethods[recv][callee.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"raw rng.%s.%s consumption outside internal/rng: state the draw-count accounting that keeps this site an exact mirror of the per-draw path (//fet:allow rngmirror: ...) or use a typed draw",
				recv, callee.Name())
			return true
		})
	}
	return nil
}

// receiverName returns the name of fn's receiver type T (for a method
// on T or *T), or "" when fn is not a method on a named type.
func receiverName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkKernelDocs enforces, inside internal/rng, that each raw-
// consumption kernel documents its exact stream consumption.
func checkKernelDocs(pass *fwk.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !documentedKernels[fn.Name.Name] {
				continue
			}
			if fn.Doc == nil || !strings.Contains(strings.ToLower(fn.Doc.Text()), "exactly") {
				pass.Reportf(fn.Pos(),
					"raw-consumption kernel %s must document its exact stream consumption (say how many outputs it consumes, with the word \"exactly\")",
					fn.Name.Name)
			}
		}
	}
	return nil
}
