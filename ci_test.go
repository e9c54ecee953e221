package streamcover

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

// ciWorkflow is the CI workflow whose test selections ciPatternProblems
// checks.
const ciWorkflow = ".github/workflows/ci.yml"

// TestCIPatternsMatchTests requires every |-alternative of every -run,
// -bench and -fuzz pattern in the CI workflow to match a Test (or
// Example or Fuzz), Benchmark or Fuzz function of the packages its
// command names, NONE excepted, so a renamed or deleted test cannot drop
// out of a CI step unnoticed. The check itself must catch a misspelled
// test name.
func TestCIPatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ciPatternProblems(t, string(data)) {
		t.Error(p)
	}

	name := regexp.MustCompile(`\bTest[A-Za-z0-9_]+`).FindString(string(data))
	if name == "" {
		t.Fatalf("%s names no test to misspell", ciWorkflow)
	}
	misspelled := strings.Replace(string(data), name, name[:len(name)-1]+"Qx", 1)
	if len(ciPatternProblems(t, misspelled)) == 0 {
		t.Errorf("a copy of %s with %s misspelled passed the check", ciWorkflow, name)
	}
}

// ciPatternProblems lists the pattern alternatives in a workflow's
// go test commands that match no function of the command's packages.
func ciPatternProblems(t *testing.T, workflow string) []string {
	t.Helper()
	funcs := map[string][]string{} // package dir -> its test files' top-level functions
	var problems []string
	for _, line := range strings.Split(workflow, "\n") {
		for _, cmd := range ciCommands(line) {
			dir, args := cmd.dir, cmd.args
			var pkgs []string
			patterns := map[string]string{} // flag -> pattern
			for i := 0; i < len(args); i++ {
				a := args[i]
				switch {
				case strings.HasPrefix(a, "./") || a == "." || a == "./...":
					pkgs = append(pkgs, filepath.Join(dir, a))
				case a == "-run" || a == "-bench" || a == "-fuzz":
					if i+1 < len(args) {
						patterns[a] = args[i+1]
						i++
					}
				default:
					if f, v, ok := strings.Cut(a, "="); ok && (f == "-run" || f == "-bench" || f == "-fuzz") {
						patterns[f] = v
					}
				}
			}
			var names []string
			for _, p := range pkgs {
				for _, d := range ciPackageDirs(t, p) {
					if _, ok := funcs[d]; !ok {
						funcs[d] = testFuncs(t, d)
					}
					names = append(names, funcs[d]...)
				}
			}
			prefixes := map[string][]string{"-run": {"Test", "Example", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}
			for flag, pattern := range patterns {
				for _, alt := range strings.Split(pattern, "|") {
					if alt == "NONE" {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						problems = append(problems, flag+" "+alt+": "+err.Error())
						continue
					}
					if !anyMatch(re, names, prefixes[flag]) {
						problems = append(problems, flag+" alternative "+alt+" matches nothing in "+strings.Join(pkgs, " "))
					}
				}
			}
		}
	}
	return problems
}

// anyMatch reports whether re matches a name that has one of prefixes.
func anyMatch(re *regexp.Regexp, names, prefixes []string) bool {
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

type ciCommand struct {
	dir  string   // working directory, relative to the repository root
	args []string // the arguments after "go test"
}

// ciCommands splits a workflow line into shell words, following single
// quotes, and returns its go test commands. A "cd" earlier on the line
// moves the working directory of the commands after it; "&&", "|" and
// ";" end a command.
func ciCommands(line string) []ciCommand {
	var words []string
	var word strings.Builder
	quoted, inWord := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case !quoted && (r == ' ' || r == '\t'):
			if inWord {
				words, inWord = append(words, word.String()), false
				word.Reset()
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	var cmds []ciCommand
	dir := "."
	for i := 0; i < len(words); i++ {
		switch {
		case words[i] == "cd" && i+1 < len(words):
			dir = filepath.Join(dir, words[i+1])
		case words[i] == "go" && i+1 < len(words) && words[i+1] == "test":
			c := ciCommand{dir: dir}
			for i += 2; i < len(words) && words[i] != "&&" && words[i] != "|" && words[i] != ";"; i++ {
				c.args = append(c.args, words[i])
			}
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// ciPackageDirs expands a package pattern to directories the way the go
// tool does: "dir/..." is dir and every directory below it that holds Go
// files, skipping testdata, names starting with "." or "_", and nested
// modules.
func ciPackageDirs(t *testing.T, pattern string) []string {
	t.Helper()
	root, ok := strings.CutSuffix(pattern, string(filepath.Separator)+"...")
	if !ok {
		if pattern != "..." {
			return []string{filepath.Clean(pattern)}
		}
		root = "."
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs returns the top-level functions declared in dir's test files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range parsed.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
