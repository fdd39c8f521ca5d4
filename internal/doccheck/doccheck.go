// Package doccheck holds the doc-presence gate shared by the packages whose
// exported surface is an API other code builds on: coverage and telemetry
// are the extension points new instrumentation lands in, serve's exported
// surface doubles as the service's wire-format documentation, and core and
// experiments are the campaign and paper-table APIs every command builds on.
// Each of those packages runs it from its own TestExportedIdentifiersDocumented.
package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// Exported fails t on any exported identifier declared in the non-test Go
// files of dir that lacks a doc comment.
func Exported(t testing.TB, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("%s: no package found", dir)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				checkDecl(t, fset, decl)
			}
		}
	}
}

func checkDecl(t testing.TB, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			t.Errorf("%s: exported func %s has no doc comment", fset.Position(d.Pos()), d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					t.Errorf("%s: exported type %s has no doc comment", fset.Position(s.Pos()), s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						t.Errorf("%s: exported %s %s has no doc comment", fset.Position(name.Pos()), declKind(d.Tok), name.Name)
					}
				}
			}
		}
	}
}

func declKind(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
