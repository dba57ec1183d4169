package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTree(t *testing.T, root, rel, content string) {
	t.Helper()
	p := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// parsePkg builds an AST-only lint target from in-memory sources (Uses nil,
// exercising the import-table fallback the linter uses when type-checking
// fails).
func parsePkg(t *testing.T, importPath string, srcs ...string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, "src"+string(rune('a'+i))+".go", src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	return &Package{Dir: "test", ImportPath: importPath, Fset: fset, Files: files}
}

// typeCheck fills pkg.Uses the way the loader does, importing stdlib from
// source.
func typeCheck(t *testing.T, pkg *Package) {
	t.Helper()
	uses := map[*ast.Ident]types.Object{}
	conf := types.Config{Importer: importer.ForCompiler(pkg.Fset, "source", nil)}
	if _, err := conf.Check(pkg.ImportPath, pkg.Fset, pkg.Files, &types.Info{Uses: uses}); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	pkg.Uses = uses
}

func rules(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Rule)
	}
	return out
}

func TestFsioRuleFlagsBareWriteFile(t *testing.T) {
	pkg := parsePkg(t, "repro/internal/model", `package model

import "os"

func save(p string, b []byte) error { return os.WriteFile(p, b, 0o644) }
`)
	fs := lintPackage(pkg)
	if len(fs) != 1 || fs[0].Rule != RuleFsio {
		t.Fatalf("want one %s finding, got %v", RuleFsio, rules(fs))
	}
	if fs[0].Pos.Line != 5 {
		t.Fatalf("finding at line %d, want 5", fs[0].Pos.Line)
	}
}

func TestFsioRuleExemptsFsioPackage(t *testing.T) {
	pkg := parsePkg(t, "repro/internal/fsio", `package fsio

import "os"

func raw(p string, b []byte) error { return os.WriteFile(p, b, 0o644) }
`)
	if fs := lintPackage(pkg); len(fs) != 0 {
		t.Fatalf("fsio package must be exempt, got %v", rules(fs))
	}
}

func TestFsioRuleIgnoresOtherWriteFile(t *testing.T) {
	pkg := parsePkg(t, "repro/internal/model", `package model

type store struct{}

func (store) WriteFile(p string, b []byte) error { return nil }

func save(s store, p string, b []byte) error { return s.WriteFile(p, b) }
`)
	if fs := lintPackage(pkg); len(fs) != 0 {
		t.Fatalf("non-os WriteFile must not be flagged, got %v", rules(fs))
	}
}

func TestFsioRuleTypedShadowNotFlagged(t *testing.T) {
	// A local variable named "os" is only distinguishable from the package
	// with type information; the typed path must not flag it.
	pkg := parsePkg(t, "repro/internal/model", `package model

type fakeOS struct{}

func (fakeOS) WriteFile(p string, b []byte) error { return nil }

func save(p string, b []byte) error {
	var os fakeOS
	return os.WriteFile(p, b)
}
`)
	typeCheck(t, pkg)
	if fs := lintPackage(pkg); len(fs) != 0 {
		t.Fatalf("shadowed os must not be flagged under type info, got %v", rules(fs))
	}
}

func TestDeterminismRuleInKernelPackage(t *testing.T) {
	src := `package pcs

import (
	"math/rand"
	"time"
)

func jitter() int64 { return rand.Int63() + time.Now().UnixNano() }
`
	pkg := parsePkg(t, "repro/internal/pcs", src)
	fs := lintPackage(pkg)
	got := rules(fs)
	if len(fs) != 2 || got[0] != RuleDeterminism || got[1] != RuleDeterminism {
		t.Fatalf("want [determinism determinism] (import + time.Now), got %v", got)
	}

	// The same source outside the kernel packages is fine.
	outside := parsePkg(t, "repro/internal/obs", strings.Replace(src, "package pcs", "package obs", 1))
	if fs := lintPackage(outside); len(fs) != 0 {
		t.Fatalf("non-kernel package must not be flagged, got %v", rules(fs))
	}
}

func TestDeterminismRuleInFieldKernels(t *testing.T) {
	// The field kernels under every MSM and NTT are kernel packages too.
	for _, path := range []string{"repro/internal/limbs", "repro/internal/ff"} {
		name := path[strings.LastIndex(path, "/")+1:]
		pkg := parsePkg(t, path, "package "+name+`

import "time"

func seed() int64 { return time.Now().UnixNano() }
`)
		fs := lintPackage(pkg)
		if len(fs) != 1 || fs[0].Rule != RuleDeterminism {
			t.Fatalf("%s: want one %s finding (time.Now), got %v", path, RuleDeterminism, rules(fs))
		}
	}
}

func TestPanicDecodeRule(t *testing.T) {
	pkg := parsePkg(t, "repro/internal/plonkish", `package plonkish

func (p *Proof) UnmarshalBinary(b []byte) error {
	if len(b) < 4 {
		panic("short proof")
	}
	return nil
}

// Error-free helpers and non-decode names are out of scope.
func mustHash(b []byte) [32]byte { panic("unreachable") }

func Evaluate(x int) error {
	if x < 0 {
		panic("negative")
	}
	return nil
}
`)
	fs := lintPackage(pkg)
	if len(fs) != 1 || fs[0].Rule != RulePanicDecode {
		t.Fatalf("want one %s finding (UnmarshalBinary only), got %v", RulePanicDecode, rules(fs))
	}
	if !strings.Contains(fs[0].Msg, "UnmarshalBinary") {
		t.Fatalf("finding should name the decode func: %q", fs[0].Msg)
	}
}

func TestAllowSuppression(t *testing.T) {
	pkg := parsePkg(t, "repro/internal/pcs", `package pcs

import "time"

func traced() func() {
	start := time.Now() //zkml:allow(determinism)
	return func() { _ = time.Since(start) }
}

func above() int64 {
	//zkml:allow(determinism)
	return time.Now().UnixNano()
}

func unsuppressed() int64 {
	//zkml:allow(fsio-atomic) — wrong rule name does not suppress
	return time.Now().UnixNano()
}
`)
	fs := lintPackage(pkg)
	if len(fs) != 1 || fs[0].Pos.Line != 17 {
		t.Fatalf("want exactly the unsuppressed finding at line 17, got %+v", fs)
	}
}

func TestExpandPatternsSkipsHiddenAndTestdata(t *testing.T) {
	root := t.TempDir()
	mk := func(rel, content string) {
		t.Helper()
		writeTree(t, root, rel, content)
	}
	mk("a/a.go", "package a\n")
	mk("a/testdata/x.go", "package x\n")
	mk(".hidden/h.go", "package h\n")
	mk("b/b_test.go", "package b\n")
	dirs, err := expandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || !strings.HasSuffix(dirs[0], "/a") {
		t.Fatalf("want only <root>/a, got %v", dirs)
	}
}
