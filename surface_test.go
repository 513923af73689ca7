package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledExportAllowlist names exported functions and methods under
// internal/ that no production file references by name, each with the
// reason it stays exported. Keys are "pkg.Func" or "pkg.Type.Method".
var uncalledExportAllowlist = map[string]string{
	"core.PartitionKWay":   "library entry point for k-way distributions, documented in README; no CLI asks for k > 2",
	"gen.RandomGeometric":  "test fixture of the baseline, order and refine tests; a _test.go file cannot export across packages",
	"graph.Graph.Validate": "safety check for callers that build or load their own graphs",
	"mpi.RankError.Unwrap": "read implicitly by errors.Is and errors.As",
	"mpi.Comm.Abort":       "lets application code running on a rank fail its world with a structured error (DESIGN.md, failure model)",
}

// TestNoUncalledExports fails when an exported function or method
// declared under internal/ is referenced by no non-test .go file of the
// repository (cmd/perfbench, a module of its own, included). A public
// surface that only tests reach is dead weight: delete it, move it into
// a _test.go file, or list it in uncalledExportAllowlist with a reason.
//
// References are matched by name, not by type: a package-level function
// counts as used when some file selects it from its package (pkg.Name)
// or its own package names it unqualified; a method counts as used when
// any file selects a field or method of that name. The match can only
// err towards "used".
func TestNoUncalledExports(t *testing.T) {
	const module = "repro"
	type decl struct {
		key, pkgPath, name string
		method             bool
		pos                token.Position
	}
	var decls []decl
	// funcRefs holds "importpath.Name" for every qualified or
	// same-package reference; selRefs every selected name.
	funcRefs := map[string]bool{}
	selRefs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgPath := module
		if dir != "." {
			pkgPath = module + "/" + dir
		}
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		declIdents := map[*ast.Ident]bool{}
		if strings.HasPrefix(dir, "internal/") {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				declIdents[fd.Name] = true
				key := path.Base(dir) + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := receiverType(fd.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue // reachable only through an exported interface or type
					}
					key = path.Base(dir) + "." + recv + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, pkgPath, fd.Name.Name, fd.Recv != nil, fset.Position(fd.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						funcRefs[ip+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !declIdents[n] {
					funcRefs[pkgPath+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		used := funcRefs[d.pkgPath+"."+d.name]
		if d.method {
			used = selRefs[d.name]
		}
		if _, ok := uncalledExportAllowlist[d.key]; ok {
			if used {
				t.Errorf("%s is referenced by production code; drop it from uncalledExportAllowlist", d.key)
			}
			continue
		}
		if !used {
			bad = append(bad, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported but referenced by no non-test file: %s", b)
	}
	for key, reason := range uncalledExportAllowlist {
		if !declared[key] {
			t.Errorf("uncalledExportAllowlist[%q] names no exported declaration", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("uncalledExportAllowlist[%q] has no reason", key)
		}
	}
}

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
