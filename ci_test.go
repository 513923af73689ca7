package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// splitTop splits re at every sep outside parentheses and brackets.
func splitTop(re string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			parts, start = append(parts, re[start:i]), i+1
		}
	}
	return append(parts, re[start:])
}

// alternatives expands a regexp into the patterns it ORs together: its
// top-level alternatives, with each unquantified group of alternatives
// distributed over the rest ("T(A|B)" is "TA" and "TB").
func alternatives(re string) []string {
	if parts := splitTop(re, '|'); len(parts) > 1 {
		var out []string
		for _, p := range parts {
			out = append(out, alternatives(p)...)
		}
		return out
	}
	for i := 0; i < len(re); i++ {
		if re[i] != '(' {
			continue
		}
		depth, j := 1, i+1
		for ; j < len(re) && depth > 0; j++ {
			switch re[j] {
			case '(':
				depth++
			case ')':
				depth--
			}
		}
		if depth > 0 {
			break
		}
		opts := splitTop(re[i+1:j-1], '|')
		if len(opts) > 1 && (j == len(re) || !strings.ContainsRune("?*+{", rune(re[j]))) {
			var out []string
			for _, o := range opts {
				out = append(out, alternatives(re[:i]+o+re[j:])...)
			}
			return out
		}
	}
	return []string{re}
}

// testFuncs returns the top-level function names in the _test.go files
// of the package a `go test` argument names ("." or "./dir/"), or with
// "/..." of every package of this module below it, and the elements,
// split on '/', of the string literals in those files that name
// subtests: the names a subtest level can take (see subtestNames).
func testFuncs(t *testing.T, pkg string) (names, elems []string) {
	t.Helper()
	dir, recursive := strings.CutSuffix(strings.TrimSuffix(pkg, "/"), "/...")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && path == dir {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); !recursive || err == nil {
				return fs.SkipDir // not asked for, or another module
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		for _, s := range subtestNames(f) {
			elems = append(elems, strings.Split(s, "/")...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names, elems
}

// subtestNames returns the string literals of f that can name a
// subtest: the first argument of a Run call (or the format of a Sprintf
// call there), the value of a "name" key in a composite literal, and
// the first element of an unkeyed composite literal (a table row). A
// literal elsewhere, such as a file name, names no subtest.
func subtestNames(f *ast.File) []string {
	var out []string
	add := func(e ast.Expr) {
		if call, ok := e.(*ast.CallExpr); ok && len(call.Args) > 0 {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" {
				e = call.Args[0]
			}
		}
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" && len(n.Args) > 0 {
				add(n.Args[0])
			}
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok && k.Name == "name" {
				add(n.Value)
			}
		case *ast.CompositeLit:
			if len(n.Elts) > 0 {
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					add(n.Elts[0])
				}
			}
		}
		return true
	})
	return out
}

// formatVerb matches a fmt verb in a string literal.
var formatVerb = regexp.MustCompile(`%[-+# 0-9.*]*[a-zA-Z]`)

// subtestMatches reports whether the subtest-level alternative alt can
// match a name built from one of elems, literal elements of subtest
// names in which every format verb ("P%d") stands for any text: alt
// matches the element with its verbs deleted, or the element, verbs as
// wildcards, spells alt. An element that is only verbs names nothing.
func subtestMatches(alt string, elems []string) bool {
	re, err := regexp.Compile(alt)
	if err != nil {
		return true // go test reports a bad pattern itself
	}
	for _, e := range elems {
		fixed := formatVerb.ReplaceAllString(e, "")
		if fixed == "" {
			continue
		}
		if re.MatchString(fixed) {
			return true
		}
		if fixed != e {
			parts := formatVerb.Split(e, -1)
			for i, p := range parts {
				parts[i] = regexp.QuoteMeta(p)
			}
			if regexp.MustCompile("^" + strings.Join(parts, ".*") + "$").MatchString(alt) {
				return true
			}
		}
	}
	return false
}

// TestCIRunPatternsMatchTests: a `go test -run` pattern that matches no
// test passes silently, so a renamed or retired test would quietly drop
// out of CI. Every -run, -bench and -fuzz alternative in the workflow
// must match a Test, Benchmark or Fuzz function (-bench a Benchmark,
// -fuzz a Fuzz target) of the packages its command names, and every
// alternative of a later level, after a '/', must match an element of
// a subtest name literal in those packages' test files (see
// subtestNames and subtestMatches);
// "^$" selects nothing on purpose.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]*regexp.Regexp{
		"-run":   regexp.MustCompile(`^(Test|Benchmark|Fuzz)`),
		"-bench": regexp.MustCompile(`^Benchmark`),
		"-fuzz":  regexp.MustCompile(`^Fuzz`),
	}
	checked := 0
	for _, line := range strings.Split(string(raw), "\n") {
		at := strings.Index(line, "go test ")
		if at < 0 {
			continue
		}
		cmd, _, _ := strings.Cut(line[at:], "&&")
		fields := strings.Fields(strings.ReplaceAll(cmd, "'", ""))
		var funcs, elems []string
		for _, f := range fields {
			if f == "." || strings.HasPrefix(f, "./") {
				names, es := testFuncs(t, f)
				funcs, elems = append(funcs, names...), append(elems, es...)
			}
		}
		for i, f := range fields {
			flag, pattern, hasValue := strings.Cut(f, "=")
			kind := kinds[flag]
			if kind == nil {
				continue
			}
			if !hasValue && i+1 < len(fields) {
				pattern = fields[i+1]
			}
			levels := splitTop(pattern, '/')
			for _, alt := range alternatives(levels[0]) {
				re, err := regexp.Compile(alt)
				if alt == "^$" || err != nil {
					continue // selects nothing on purpose; go test reports a bad pattern itself
				}
				checked++
				matched := false
				for _, fn := range funcs {
					matched = matched || kind.MatchString(fn) && re.MatchString(fn)
				}
				if !matched {
					t.Errorf("%s: %s alternative %q matches no %s function", strings.TrimSpace(cmd), flag, alt, kind)
				}
			}
			for _, level := range levels[1:] {
				for _, alt := range alternatives(level) {
					checked++
					if !subtestMatches(alt, elems) {
						t.Errorf("%s: %s subtest alternative %q matches no subtest name in the test files", strings.TrimSpace(cmd), flag, alt)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run, -bench or -fuzz pattern in the workflow")
	}
}
