package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// Rule names, as they appear in findings and //zkml:allow(<rule>) comments.
const (
	RuleFsio        = "fsio-atomic"
	RuleDeterminism = "determinism"
	RulePanicDecode = "panic-decode"
)

// kernelPackages are the prover-critical packages where nondeterminism
// (math/rand, time.Now) is forbidden: proof bytes and kernel schedules must
// be reproducible run-to-run.
var kernelPackages = map[string]bool{
	"internal/limbs":    true,
	"internal/ff":       true,
	"internal/curve":    true,
	"internal/poly":     true,
	"internal/pcs":      true,
	"internal/plonkish": true,
}

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

var allowRe = regexp.MustCompile(`zkml:allow\(([a-z-]+)\)`)

// lintPackage runs every rule over one package and returns the unsuppressed
// findings.
func lintPackage(pkg *Package) []Finding {
	var out []Finding
	kernel := false
	for suffix := range kernelPackages {
		if strings.HasSuffix(pkg.ImportPath, suffix) {
			kernel = true
		}
	}
	inFsio := strings.HasSuffix(pkg.ImportPath, "internal/fsio")
	for _, file := range pkg.Files {
		allowed := allowedLines(pkg.Fset, file)
		emit := func(rule string, pos token.Pos, format string, args ...any) {
			p := pkg.Fset.Position(pos)
			if allowed[p.Line][rule] || allowed[p.Line-1][rule] {
				return
			}
			out = append(out, Finding{Pos: p, Rule: rule, Msg: fmt.Sprintf(format, args...)})
		}
		if !inFsio {
			checkFsio(pkg, file, emit)
		}
		if kernel {
			checkDeterminism(pkg, file, emit)
		}
		checkPanicDecode(pkg, file, emit)
	}
	return out
}

// allowedLines collects //zkml:allow(rule) suppressions keyed by the line the
// comment sits on; a finding is suppressed by an allow on its own line or the
// line directly above.
func allowedLines(fset *token.FileSet, file *ast.File) map[int]map[string]bool {
	m := map[int]map[string]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			for _, match := range allowRe.FindAllStringSubmatch(c.Text, -1) {
				line := fset.Position(c.Pos()).Line
				if m[line] == nil {
					m[line] = map[string]bool{}
				}
				m[line][match[1]] = true
			}
		}
	}
	return m
}

type emitFunc func(rule string, pos token.Pos, format string, args ...any)

// checkFsio flags bare os.WriteFile calls: artifact writes must go through
// fsio.WriteFileAtomic so a crash mid-write cannot leave a torn file.
func checkFsio(pkg *Package, file *ast.File, emit emitFunc) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "WriteFile" {
			return true
		}
		if isPackageRef(pkg, file, sel.X, "os") {
			emit(RuleFsio, call.Pos(),
				"bare os.WriteFile: use fsio.WriteFileAtomic so a crash cannot leave a torn artifact")
		}
		return true
	})
}

// checkDeterminism flags math/rand imports and time.Now calls inside the
// kernel packages.
func checkDeterminism(pkg *Package, file *ast.File, emit emitFunc) {
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			emit(RuleDeterminism, imp.Pos(),
				"import of %s in a kernel package: prover behaviour must be deterministic", path)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Now" {
			return true
		}
		if isPackageRef(pkg, file, sel.X, "time") {
			emit(RuleDeterminism, call.Pos(),
				"time.Now in a kernel package: prover behaviour must not depend on wall time")
		}
		return true
	})
}

// checkPanicDecode flags panic calls inside untrusted-decode functions —
// error-returning Unmarshal*/Decode*/Parse*/Import*/Load*/SetBytes bodies
// must map malformed bytes to the zkerrors taxonomy instead of crashing.
func checkPanicDecode(pkg *Package, file *ast.File, emit emitFunc) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !isDecodeFunc(fn) {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			// Nested function literals inherit the decode-path obligation:
			// a panic in a deferred closure still crashes the decoder.
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if pkg.Uses != nil {
				if obj, found := pkg.Uses[id]; found {
					if _, builtin := obj.(*types.Builtin); !builtin {
						return true // shadowed panic, not the builtin
					}
				}
			}
			emit(RulePanicDecode, call.Pos(),
				"panic on untrusted-decode path %s: return a zkerrors error instead", fn.Name.Name)
			return true
		})
	}
}

// isDecodeFunc reports whether fn sits on the untrusted-decode surface: its
// name marks it as consuming external bytes and it returns an error (so a
// taxonomy error is expressible).
func isDecodeFunc(fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	decodeish := name == "UnmarshalBinary" || name == "UnmarshalJSON" || name == "SetBytes" ||
		strings.HasPrefix(name, "Decode") || strings.HasPrefix(name, "Unmarshal") ||
		strings.HasPrefix(name, "Parse") || strings.HasPrefix(name, "Import") ||
		strings.HasPrefix(name, "Load")
	if !decodeish {
		return false
	}
	res := fn.Type.Results
	if res == nil {
		return false
	}
	for _, field := range res.List {
		if id, ok := field.Type.(*ast.Ident); ok && id.Name == "error" {
			return true
		}
	}
	return false
}

// isPackageRef reports whether expr is a reference to the package imported
// under path pkgPath. With type info it resolves the identifier precisely
// (so a local variable named "os" is not confused with the package); without
// it, it falls back to the file's import table.
func isPackageRef(pkg *Package, file *ast.File, expr ast.Expr, pkgPath string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	if pkg.Uses != nil {
		if obj, found := pkg.Uses[id]; found {
			pn, isPkg := obj.(*types.PkgName)
			return isPkg && pn.Imported().Path() == pkgPath
		}
	}
	return id.Name == importedName(file, pkgPath)
}

// importedName returns the local name pkgPath is bound to in file's imports,
// or "" if the file does not import it.
func importedName(file *ast.File, pkgPath string) string {
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != pkgPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}
