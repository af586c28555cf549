#!/bin/sh
# unused_exports.sh — list exported funcs and methods nothing calls.
#
#   ./scripts/unused_exports.sh
#
# Prints, one per line as `file:line: [Recv.]Name`, every exported
# function or method declared in a non-test .go file of the root module
# (bench/, a module of its own, is not listed) whose name appears on no
# non-comment line of any non-test .go file other than its own
# declaration. bench/'s files count as callers: the benchmark builds
# against the façade, so a name it uses stays.
#
# The match is by name, not by type: a method shares its name with
# every other method or func of that name, and a name only tests use is
# listed. So a listed name is a candidate for deletion, not a verdict.
# Report only: a listed name does not fail it (it exits non-zero only
# when a file does not parse), and check.sh does not run it. It needs
# only the Go toolchain and coreutils.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/main.go" <<'EOF'
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type site struct {
	file string
	line int
}

func main() {
	fset := token.NewFileSet()
	uses := map[string][]site{} // identifier -> non-comment lines it is on
	type decl struct {
		site
		name, label string
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file := fset.AddFile(path, -1, len(src))
		var s scanner.Scanner
		s.Init(file, src, nil, 0) // comments are skipped
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				uses[lit] = append(uses[lit], site{path, file.Line(pos)})
			}
		}
		if strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
			return nil
		}
		pf := token.NewFileSet()
		f, err := parser.ParseFile(pf, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			label := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
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
			decls = append(decls, decl{site{path, pf.Position(fd.Name.Pos()).Line}, fd.Name.Name, label})
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unused_exports:", err)
		os.Exit(1)
	}
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].file != decls[j].file {
			return decls[i].file < decls[j].file
		}
		return decls[i].line < decls[j].line
	})
	for _, d := range decls {
		used := false
		for _, u := range uses[d.name] {
			if u != d.site {
				used = true
				break
			}
		}
		if !used {
			fmt.Printf("%s:%d: %s\n", d.file, d.line, d.label)
		}
	}
}
EOF
go run "$tmp/main.go"
