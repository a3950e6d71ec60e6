package lint

import (
	"context"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// RunFixture is the analysistest-style harness: it loads the fixture
// package at testdata/src/<name> (relative to the caller's directory),
// runs exactly one analyzer over it, and checks the findings against
// `// want` expectations embedded in the fixture sources.
//
// An expectation is a comment of the form
//
//	// want `regexp` `regexp` ...
//
// attached to the offending line; each back-quoted (or double-quoted)
// regexp must match the message of one distinct finding reported on that
// line. Lines without a want comment must produce no findings, and every
// finding must be claimed by an expectation — both directions fail the
// test, exactly like golang.org/x/tools/go/analysis/analysistest.
func RunFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	// `go list` skips testdata directories during wildcard expansion, so
	// enumerate every fixture sub-package explicitly.
	patterns, err := fixturePatterns(dir)
	if err != nil {
		t.Fatalf("scanning fixture %s: %v", name, err)
	}
	if len(patterns) == 0 {
		t.Fatalf("fixture %s has no Go packages", name)
	}
	mod, err := LoadContext(context.Background(), nil, "", patterns...)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(mod.Packages) == 0 {
		t.Fatalf("fixture %s matched no packages", name)
	}

	findings := mod.Run([]*Analyzer{a})

	wants := collectWants(t, mod)
	// Index findings by file:line for matching.
	used := make([]bool, len(findings))
	for _, w := range wants {
		matched := false
		for i, f := range findings {
			if used[i] || f.Pos.Filename != w.file || f.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(f.Message) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: no finding matching %q (analyzer %s)", w.file, w.line, w.re, a.Name)
		}
	}
	for i, f := range findings {
		if !used[i] {
			t.Errorf("%s: unexpected finding: %s", a.Name, f)
		}
	}
}

// fixturePatterns lists every directory under root that contains Go
// files, as explicit ./-relative go list patterns.
func fixturePatterns(root string) ([]string, error) {
	dirs := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for d := range dirs {
		out = append(out, "./"+filepath.ToSlash(d))
	}
	sort.Strings(out)
	return out, nil
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// collectWants extracts `// want ...` comments from every file of every
// loaded package.
func collectWants(t *testing.T, mod *Module) []want {
	t.Helper()
	var out []want
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Both comment forms carry expectations; the block
					// form is for lines whose line comment is already a
					// //lint: directive under test.
					text, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						text, ok = strings.CutPrefix(c.Text, "/* want ")
						if !ok {
							continue
						}
						text = strings.TrimSuffix(text, "*/")
					}
					pos := mod.Fset.Position(c.Pos())
					n := 0
					for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
						pat := m[1]
						if m[2] != "" {
							// Double-quoted: unescape like a Go string.
							s, err := strconv.Unquote(`"` + m[2] + `"`)
							if err != nil {
								t.Fatalf("%s: bad want pattern %q: %v", pos, m[2], err)
							}
							pat = s
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
						n++
					}
					if n == 0 {
						t.Fatalf("%s: want comment with no parsable patterns: %s", pos, c.Text)
					}
				}
			}
		}
	}
	return out
}
