package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
// "/..." of every package of this module below it.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(strings.TrimSuffix(pkg, "/"), "/...")
	var names []string
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestCIRunPatternsMatchTests: a `go test -run` pattern that matches no
// test passes silently, so a renamed or retired test would quietly drop
// out of CI. Every -run, -bench and -fuzz alternative in the workflow
// must match a Test, Benchmark or Fuzz function (-bench a Benchmark,
// -fuzz a Fuzz target) of the packages its command names. Subtest
// levels, after a '/', are not checked; "^$" selects nothing on purpose.
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
		var funcs []string
		for _, f := range fields {
			if f == "." || strings.HasPrefix(f, "./") {
				funcs = append(funcs, testFuncs(t, f)...)
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
			for _, alt := range alternatives(splitTop(pattern, '/')[0]) {
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
		}
	}
	if checked == 0 {
		t.Fatal("found no -run, -bench or -fuzz pattern in the workflow")
	}
}
