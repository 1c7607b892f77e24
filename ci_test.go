package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// ciWorkflow is the CI definition whose go test patterns
// TestCIPatternsSelectTests checks.
const ciWorkflow = ".github/workflows/ci.yml"

// TestCIPatternsSelectTests fails when a -run, -bench or -fuzz pattern of
// a go test command in the CI workflow selects nothing in the packages
// that command names: a renamed or deleted test would otherwise leave
// its CI step passing while it runs nothing. -run matches Test, Example
// and Fuzz functions, -bench Benchmark functions and -fuzz Fuzz
// functions, each by the pattern's top-level element as go test does;
// "^$", which deliberately selects nothing, is exempt. Declarations are
// read from the *_test.go files with go/parser, so the test needs no
// build of the packages it inspects.
func TestCIPatternsSelectTests(t *testing.T) {
	cmds, err := ciTestCommands(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string][]string{} // package dir → kind → names
	checked := map[string]int{}
	for _, c := range cmds {
		dirs, err := packageDirs(c.pkgs)
		if err != nil {
			t.Fatalf("%s:%d: %v", ciWorkflow, c.line, err)
		}
		for _, flag := range []string{"run", "bench", "fuzz"} {
			pattern, ok := c.flags[flag]
			if !ok || pattern == "^$" {
				continue
			}
			re, err := regexp.Compile(topLevelPattern(pattern))
			if err != nil {
				t.Errorf("%s:%d: -%s %q: %v", ciWorkflow, c.line, flag, pattern, err)
				continue
			}
			checked[flag]++
			found := false
			for _, dir := range dirs {
				if decls[dir] == nil {
					if decls[dir], err = testDecls(dir); err != nil {
						t.Fatal(err)
					}
				}
				for _, kind := range selectable[flag] {
					for _, name := range decls[dir][kind] {
						found = found || re.MatchString(name)
					}
				}
			}
			if !found {
				t.Errorf("%s:%d: -%s %q selects no %s in %s",
					ciWorkflow, c.line, flag, pattern, strings.Join(selectable[flag], "/"), strings.Join(c.pkgs, " "))
			}
		}
	}
	for _, flag := range []string{"run", "bench", "fuzz"} {
		if checked[flag] == 0 {
			t.Errorf("%s: found no -%s pattern to check; is the workflow parsed?", ciWorkflow, flag)
		}
	}
}

// selectable maps a go test flag to the declaration kinds it selects.
var selectable = map[string][]string{
	"run":   {"Test", "Example", "Fuzz"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// ciTestCommand is one go test invocation in the workflow.
type ciTestCommand struct {
	line  int
	flags map[string]string // flag name without dashes → value
	pkgs  []string
}

// valueFlags are the go test flags whose value may follow as a separate
// word; any other flag is taken for a boolean.
var valueFlags = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "skip": true, "list": true,
	"benchtime": true, "fuzztime": true, "count": true, "cpu": true,
	"timeout": true, "parallel": true, "p": true, "tags": true,
}

// ciTestCommands returns every go test command on a line of the workflow.
func ciTestCommands(path string) ([]ciTestCommand, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cmds []ciTestCommand
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		_, rest, ok := strings.Cut(sc.Text(), "go test ")
		if !ok {
			continue
		}
		words, err := shellWords(rest)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, n, err)
		}
		c := ciTestCommand{line: n, flags: map[string]string{}}
		for i := 0; i < len(words); i++ {
			w := words[i]
			if !strings.HasPrefix(w, "-") {
				c.pkgs = append(c.pkgs, w)
				continue
			}
			name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !hasValue && valueFlags[name] && i+1 < len(words) {
				i++
				value = words[i]
			}
			c.flags[name] = value
		}
		if len(c.pkgs) == 0 {
			c.pkgs = []string{"."}
		}
		cmds = append(cmds, c)
	}
	return cmds, sc.Err()
}

// shellWords splits s into words the way a POSIX shell would for the
// simple commands CI uses: blanks separate words, quotes group them.
func shellWords(s string) ([]string, error) {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if quote != 0 {
		return nil, fmt.Errorf("unterminated %c quote", quote)
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words, nil
}

// packageDirs expands go test package arguments ("./x", "./x/...",
// "./...") into the package directories of this module.
func packageDirs(pkgs []string) ([]string, error) {
	var dirs []string
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "/...")
		if !recursive {
			dirs = append(dirs, filepath.Clean(root))
			continue
		}
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir != root {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
					return filepath.SkipDir // a nested module
				}
			}
			dirs = append(dirs, filepath.Clean(dir))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// testDecls returns the test, example, fuzz and benchmark function names
// declared in dir's *_test.go files, by kind.
func testDecls(dir string) (map[string][]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	out := map[string][]string{}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, kind := range []string{"Test", "Example", "Fuzz", "Benchmark"} {
				if isTestFunc(fn.Name.Name, kind) {
					out[kind] = append(out[kind], fn.Name.Name)
				}
			}
		}
	}
	return out, nil
}

// isTestFunc reports whether name is a go test function of the kind
// prefix: the prefix alone, or the prefix followed by anything but a
// lower-case letter.
func isTestFunc(name, prefix string) bool {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return false
	}
	r, _ := utf8.DecodeRuneInString(rest)
	return rest == "" || !unicode.IsLower(r)
}

// topLevelPattern is the element of a go test -run or -bench pattern
// that matches function names: the text before the first slash outside
// brackets and parentheses.
func topLevelPattern(pattern string) string {
	depth := 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case '/':
			if depth == 0 {
				return pattern[:i]
			}
		}
	}
	return pattern
}
