package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ErrWrapAnalyzer enforces Go 1.13 error discipline module-wide:
//
//   - fmt.Errorf must wrap an underlying error with %w, not flatten it
//     through %v/%s — otherwise errors.Is/As cannot see through the
//     harness and CLI layers (sim.AbortError, *InvariantError,
//     context.Canceled all rely on unwrapping);
//   - sentinel and typed errors are matched with errors.Is/errors.As,
//     never compared with == / != or by message text.
func ErrWrapAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "errwrap",
		Doc:  "wrap cross-layer errors with %w and match them with errors.Is/As",
		Run:  runErrWrap,
	}
}

func runErrWrap(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPkgCall(info, n, "fmt", "Errorf") {
					checkErrorf(pass, n)
				}
			case *ast.BinaryExpr:
				checkErrCompare(pass, n)
			}
			return true
		})
	}
}

// checkErrorf flags %v/%s applied to error-typed Errorf arguments.
func checkErrorf(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	info := pass.Pkg.Info
	for vi, letter := range scanVerbs(format) {
		argIdx := 1 + vi
		if argIdx >= len(call.Args) {
			break
		}
		if letter != 'v' && letter != 's' {
			continue
		}
		arg := call.Args[argIdx]
		if tv, ok := info.Types[arg]; ok && isErrorType(tv.Type) {
			pass.Reportf(arg.Pos(),
				"fmt.Errorf flattens an error with %%%c; wrap it with %%w so errors.Is/As see through this layer", letter)
		}
	}
}

// scanVerbs returns the letters of the argument-consuming format
// directives, in order. A star width or precision consumes an argument
// of its own; formats using one yield nothing rather than a misaligned
// argument mapping.
func scanVerbs(format string) []byte {
	var out []byte
	for i := 0; i < len(format); {
		if format[i] != '%' {
			i++
			continue
		}
		j := i + 1
		for j < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[j])) {
			j++
		}
		if j >= len(format) {
			break
		}
		if format[j] == '%' {
			i = j + 1
			continue
		}
		if format[j] == '*' {
			return nil
		}
		out = append(out, format[j])
		i = j + 1
	}
	return out
}

// checkErrCompare flags == / != between errors and message-text checks.
func checkErrCompare(pass *Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	info := pass.Pkg.Info
	xt, yt := info.Types[b.X].Type, info.Types[b.Y].Type
	if isErrorType(xt) && isErrorType(yt) {
		pass.Reportf(b.OpPos, "errors compared with %s; use errors.Is (wrapped errors do not compare equal)", b.Op)
		return
	}
	// err.Error() == "some text" (either side).
	if isErrorMessageCall(info, b.X) || isErrorMessageCall(info, b.Y) {
		pass.Reportf(b.OpPos, "error matched by message text; use errors.Is/errors.As against a sentinel or typed error")
	}
}

// isErrorMessageCall recognizes <error expr>.Error().
func isErrorMessageCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && isErrorType(tv.Type)
}
