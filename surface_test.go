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

// hostparPoolVars are the package-level variables internal/hostpar may
// hold: the shared goroutine pool's state. A loop's width is a value
// its caller passes, never a package setting.
var hostparPoolVars = map[string]bool{"poolMu": true, "poolSize": true, "taskq": true, "jobPool": true}

// TestNoProcessGlobalKnobs fails on an exported package-level Set*
// function under internal/ and on any package-level variable of
// internal/hostpar outside its pool state. Run settings are values (an
// mpi.Model, an Options struct), so two differently configured runs in
// one process cannot interfere through a global.
func TestNoProcessGlobalKnobs(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		hostpar := filepath.ToSlash(filepath.Dir(p)) == "internal/hostpar"
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv == nil && d.Name.IsExported() && strings.HasPrefix(name, "Set") &&
					(len(name) == 3 || strings.ToUpper(name[3:4]) == name[3:4]) {
					t.Errorf("%s: exported setter %s: pass the setting as a value", fset.Position(d.Pos()), name)
				}
			case *ast.GenDecl:
				if !hostpar || d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						if !hostparPoolVars[n.Name] {
							t.Errorf("%s: hostpar package-level variable %s outside the pool state", fset.Position(n.Pos()), n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// unsetOptionFieldAllowlist names exported fields of option structs
// that no production file sets, each with the reason the field stays
// settable. Keys are "pkg.Type.Field".
var unsetOptionFieldAllowlist = map[string]string{
	"embed.ParallelOptions.IterCoarsest": "tests shorten the coarsest-level embedding to keep their runs fast",
	"embed.ParallelOptions.IterSmooth":   "tests shorten the per-level smoothing of the embedding to keep their runs fast",
	"embed.SeqOptions.IterCoarsest":      "tests shorten the sequential layout's coarsest-level iterations to keep their runs fast",
}

// TestNoUnsetOptionFields fails when an exported field of an exported
// *Options or *Config struct type declared under internal/ is set by no
// non-test .go file of the repository, as a composite-literal key or an
// assignment target outside a withDefaults method. A field that every
// production caller leaves at its default takes one value: it is a
// constant, not an option. Make it one, or list it in
// unsetOptionFieldAllowlist with a reason.
//
// A key of a composite literal whose type is written out sets the field
// of that type only. Other keys and assignment targets are matched by
// name, as in TestNoUncalledExports: any file setting a field of that
// name counts, so the match can only err towards "set".
func TestNoUnsetOptionFields(t *testing.T) {
	type field struct {
		key, name string
		pos       token.Position
	}
	var fields []field
	set := map[string]bool{} // "pkg.Type.Field" for typed literal keys, else the bare field name
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
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if !strings.HasPrefix(dir, "internal/") || d.Tok != token.TYPE {
					continue
				}
				for _, s := range d.Specs {
					ts := s.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					name := ts.Name.Name
					if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
						continue
					}
					for _, fl := range st.Fields.List {
						names := fl.Names
						if len(names) == 0 { // embedded: the field is named after its type
							names = []*ast.Ident{ast.NewIdent(receiverType(fl.Type))}
							names[0].NamePos = fl.Type.Pos()
						}
						for _, n := range names {
							if n.IsExported() {
								fields = append(fields, field{path.Base(dir) + "." + name + "." + n.Name, n.Name, fset.Position(n.Pos())})
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Name.Name == "withDefaults" || d.Body == nil {
					continue // defaulting a field is not setting it
				}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						typ := ""
						switch lt := n.Type.(type) {
						case *ast.Ident:
							typ = path.Base(dir) + "." + lt.Name + "."
						case *ast.SelectorExpr:
							if pkg, ok := lt.X.(*ast.Ident); ok {
								typ = pkg.Name + "." + lt.Sel.Name + "."
							}
						}
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								if k, ok := kv.Key.(*ast.Ident); ok {
									set[typ+k.Name] = true
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if s, ok := lhs.(*ast.SelectorExpr); ok {
								set[s.Sel.Name] = true
							}
						}
					case *ast.IncDecStmt:
						if s, ok := n.X.(*ast.SelectorExpr); ok {
							set[s.Sel.Name] = true
						}
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var bad []string
	for _, f := range fields {
		declared[f.key] = true
		isSet := set[f.key] || set[f.name]
		if _, ok := unsetOptionFieldAllowlist[f.key]; ok {
			if isSet {
				t.Errorf("%s is set by production code; drop it from unsetOptionFieldAllowlist", f.key)
			}
			continue
		}
		if !isSet {
			bad = append(bad, f.pos.String()+": "+f.key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("option field set by no non-test file: %s", b)
	}
	for key, reason := range unsetOptionFieldAllowlist {
		if !declared[key] {
			t.Errorf("unsetOptionFieldAllowlist[%q] names no option field", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("unsetOptionFieldAllowlist[%q] has no reason", key)
		}
	}
}
