#!/bin/sh
# unused_exports.sh — list exported funcs and methods nothing calls.
#
#   ./scripts/unused_exports.sh
#
# Prints, one per line as `dir [Recv.]Name` (dir relative to the module
# root, sorted by dir, then name), every exported function or method
# declared in a non-test .go file of the root module (bench/, a module
# of its own, is not listed) that nothing outside tests uses. Names are
# resolved by type, not by spelling: the module's non-test files are
# type-checked with go/types (the standard library from source, the
# module's packages from source in dependency order), and a func or
# method counts as used when
#
#   - a non-test identifier or selector resolves to it;
#   - its receiver implements an interface type the module mentions
#     (names, holds a value of, or passes to a parameter of), and that
#     interface declares the method;
#   - it is String() string, Error() string or Unwrap() error (or
#     []error), which the standard library calls through interfaces the
#     module need not name;
#   - a selector in bench/ names it: the benchmark builds against the
#     façade, so a name it selects stays (matched by name, as bench/ is
#     not type-checked).
#
# A listed name is used only by tests, or not at all: a candidate for
# deletion, not a verdict. The script itself exits non-zero only when a
# file does not parse or type-check. scripts/unused_exports.txt holds
# its committed output, and check.sh fails on any difference from it,
# so a test-only export cannot land unseen: delete the name, give it a
# caller, or update the file in the same change. It needs only the Go
# toolchain.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/main.go" <<'EOF'
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

var (
	fset = token.NewFileSet()
	std  = importer.ForCompiler(fset, "source", nil)
	// srcs maps each module package's import path to its directory and
	// non-test files, as go list reports them.
	srcs    = map[string][2]string{}
	checked = map[string]*types.Package{}
	info    = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	files []*ast.File // every checked module file
)

// modImporter checks a module package from source the first time it is
// imported, so packages are checked in dependency order; everything
// else comes from the standard library's sources.
type modImporter struct{}

func (modImporter) Import(path string) (*types.Package, error) {
	if p, ok := checked[path]; ok {
		return p, nil
	}
	src, ok := srcs[path]
	if !ok {
		return std.Import(path)
	}
	var parsed []*ast.File
	for _, name := range strings.Fields(src[1]) {
		f, err := parser.ParseFile(fset, filepath.Join(src[0], name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	p, err := (&types.Config{Importer: modImporter{}}).Check(path, fset, parsed, info)
	if err != nil {
		return nil, err
	}
	checked[path] = p
	files = append(files, parsed...)
	return p, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "unused_exports:", err)
	os.Exit(1)
}

func main() {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}|{{.Dir}}|{{join .GoFiles " "}}`, "./...").Output()
	if err != nil {
		fail(err)
	}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.SplitN(line, "|", 3)
		srcs[f[0]] = [2]string{f[1], f[2]}
		paths = append(paths, f[0])
	}
	for _, p := range paths {
		if _, err := (modImporter{}).Import(p); err != nil {
			fail(err)
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}

	// The interfaces the module mentions, and the ones the standard
	// library calls on values it is handed.
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, tv := range info.Types {
		addIface(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				addIface(sig.Params().At(i).Type())
			}
		}
	}
	for _, src := range []string{
		"interface{ String() string }", "error",
		"interface{ Unwrap() error }", "interface{ Unwrap() []error }",
	} {
		tv, err := types.Eval(fset, nil, token.NoPos, src)
		if err != nil {
			fail(err)
		}
		addIface(tv.Type)
	}

	// Mark every method a module type supplies to one of them.
	for _, obj := range info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		ms := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
					used[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}

	// Names bench/ selects.
	benchSel := map[string]bool{}
	err = filepath.WalkDir("bench", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if se, ok := n.(*ast.SelectorExpr); ok {
				benchSel[se.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		fail(err)
	}

	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	type decl struct{ dir, label string }
	var unused []decl
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || benchSel[fd.Name.Name] {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); !ok || used[fn] {
				continue
			}
			label := fd.Name.Name
			if fd.Recv != nil {
				t := fd.Recv.List[0].Type
				if st, ok := t.(*ast.StarExpr); ok {
					t = st.X
				}
				if ix, ok := t.(*ast.IndexExpr); ok {
					t = ix.X
				}
				if id, ok := t.(*ast.Ident); ok {
					label = id.Name + "." + label
				}
			}
			rel, err := filepath.Rel(root, filepath.Dir(fset.Position(fd.Name.Pos()).Filename))
			if err != nil {
				fail(err)
			}
			unused = append(unused, decl{filepath.ToSlash(rel), label})
		}
	}
	sort.Slice(unused, func(i, j int) bool {
		if unused[i].dir != unused[j].dir {
			return unused[i].dir < unused[j].dir
		}
		return unused[i].label < unused[j].label
	})
	for _, d := range unused {
		fmt.Printf("%s %s\n", d.dir, d.label)
	}
}
EOF
go run "$tmp/main.go"
