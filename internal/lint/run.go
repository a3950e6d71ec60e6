package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/runner"
)

// Finding is a Diagnostic with its position resolved, ready to print or
// assert on.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run applies every analyzer to every loaded package, filters the results
// through //lint:ignore and //lint:file-ignore directives, and returns the
// surviving findings sorted by position.
//
// Packages are visited in dependency order (Load topo-sorts them), so
// facts exported while analyzing a package are visible when its dependents
// are analyzed. This is the sequential reference driver; RunParallel
// produces identical output by scheduling the same per-package analysis
// over the dependency DAG.
//
// Two directive forms are honoured, mirroring staticcheck's:
//
//	//lint:ignore <checks> <reason>       suppress on this or the next line
//	//lint:file-ignore <checks> <reason>  suppress in the whole file
//
// <checks> is a comma-separated list of analyzer names, or "all". The
// reason is mandatory, and every name must belong to the registered suite
// — a directive without a reason, or naming an unknown analyzer, is
// itself reported as a finding (analyzer "lintdirective"), so
// suppressions stay auditable and typos cannot silently suppress nothing.
func (m *Module) Run(analyzers []*Analyzer) []Finding {
	registerFactTypes(analyzers)
	store := newFactStore()
	var out []Finding
	for _, pkg := range m.Packages {
		out = append(out, analyzePackage(m.Fset, pkg, analyzers, store)...)
	}
	sortFindings(out)
	return out
}

// RunParallel runs the same analysis as Run, scheduled over the package
// dependency DAG on the given worker pool (nil selects the default
// GOMAXPROCS-bounded pool): the packages are partitioned into Kahn waves
// — wave k holds packages all of whose in-module dependencies sit in
// waves < k — and each wave's packages are analyzed concurrently, so
// facts from every dependency are always complete before a dependent
// starts. Fan-out is bounded by the pool, cancellation is cooperative via
// ctx, and a panicking analyzer surfaces as a *runner.PanicError instead
// of crashing the driver.
//
// The returned findings are byte-identical to Run's at any worker count.
func (m *Module) RunParallel(ctx context.Context, pool *runner.Pool, analyzers []*Analyzer) ([]Finding, error) {
	registerFactTypes(analyzers)
	store := newFactStore()
	var out []Finding
	for _, wave := range m.waves() {
		wave := wave
		perPkg, err := runner.Map(ctx, pool, len(wave), func(ctx context.Context, i int) ([]Finding, error) {
			return analyzePackage(m.Fset, wave[i], analyzers, store), nil
		})
		if err != nil {
			return nil, err
		}
		for _, fs := range perPkg {
			out = append(out, fs...)
		}
	}
	sortFindings(out)
	return out, nil
}

// waves partitions the module's packages into dependency levels: wave 0
// holds packages with no in-module dependencies, wave k packages whose
// deepest dependency chain has length k. Packages preserve their
// topological (tie-broken lexicographic) order within a wave.
func (m *Module) waves() [][]*Package {
	level := make(map[string]int, len(m.Packages))
	var waves [][]*Package
	for _, pkg := range m.Packages {
		l := 0
		for _, dep := range pkg.Imports {
			if dl, ok := level[dep]; ok && dl+1 > l {
				l = dl + 1
			}
		}
		level[pkg.Path] = l
		for len(waves) <= l {
			waves = append(waves, nil)
		}
		waves[l] = append(waves[l], pkg)
	}
	return waves
}

// analyzePackage runs every analyzer over one package, applying
// suppression directives and the partial-findings policy: when an
// analyzer's Run returns an error, any diagnostics it emitted before
// failing are dropped — a crashing analyzer must not masquerade as either
// a clean pass or a complete one — and a single synthetic finding records
// the failure and the drop count.
func analyzePackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer, store *factStore) []Finding {
	sup, out := collectDirectives(fset, pkg.Files, knownCheckNames(analyzers))
	irs := newIRCache() // one IR per function, shared by every analyzer below
	cg := &cgCache{}    // one call graph per package, likewise shared
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			facts:     store,
			irs:       irs,
			cg:        cg,
		}
		var got []Finding
		pass.Report = func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if sup.suppressed(a.Name, pos) {
				return
			}
			got = append(got, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			msg := fmt.Sprintf("analyzer failed: %v", err)
			if n := len(got); n > 0 {
				msg = fmt.Sprintf("%s (dropped %d partial finding(s))", msg, n)
			}
			out = append(out, Finding{
				Analyzer: a.Name,
				Pos:      token.Position{Filename: pkg.Path},
				Message:  msg,
			})
			continue
		}
		out = append(out, got...)
	}
	return out
}

// sortFindings orders findings by position, analyzer and message — a total
// order, so the result is independent of the order packages were analyzed
// in (sequential topo order vs parallel waves).
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// runForTypes runs analyzers over an already type-checked package — the
// unitchecker (`go vet -vettool`) path, which gets its type information
// from vet's config file rather than Load. The fact store is owned by the
// caller, so the vetx path can pre-load dependency facts and harvest the
// exports.
func runForTypes(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, store *factStore) []Finding {
	var goFiles []string
	for _, f := range files {
		goFiles = append(goFiles, fset.Position(f.Pos()).Filename)
	}
	p := &Package{
		Path:    pkg.Path(),
		Name:    pkg.Name(),
		GoFiles: goFiles,
		Files:   files,
		Types:   pkg,
		Info:    info,
	}
	out := analyzePackage(fset, p, analyzers, store)
	sortFindings(out)
	return out
}

// knownCheckNames is the set of names valid in a //lint: directive's
// <checks> list: the registered suite, any extra analyzers in the current
// run (fixture-only analyzers in tests), the wildcard "all", and
// "lintdirective" itself.
func knownCheckNames(analyzers []*Analyzer) map[string]bool {
	known := map[string]bool{"all": true, "lintdirective": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}

// suppressions records which analyzers are silenced where.
type suppressions struct {
	// file maps filename -> analyzer set silenced for the whole file.
	file map[string]map[string]bool
	// line maps filename -> line -> analyzer set. A line directive
	// covers its own line (trailing comment) and the one below it
	// (comment on the line above the offending statement); a trailing
	// directive on a multi-line statement covers the whole statement.
	line map[string]map[int]map[string]bool
}

func (s suppressions) suppressed(analyzer string, pos token.Position) bool {
	if set := s.file[pos.Filename]; set["all"] || set[analyzer] {
		return true
	}
	lines := s.line[pos.Filename]
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		if set := lines[ln]; set["all"] || set[analyzer] {
			return true
		}
	}
	return false
}

// collectDirectives scans the comments of every file for //lint:
// directives, validating each against known (the registered analyzer
// names plus "all"). Malformed or unknown-name directives come back as
// findings so they fail the gate instead of silently suppressing nothing
// (or everything).
func collectDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) (suppressions, []Finding) {
	sup := suppressions{
		file: make(map[string]map[string]bool),
		line: make(map[string]map[int]map[string]bool),
	}
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) > 0 && (fields[0] == "hotpath" || fields[0] == "coldpath") {
					// Annotations consumed by allocflow, not suppressions.
					// They still demand a reason: an unexplained hot or
					// cold path is unreviewable.
					if len(fields) < 2 {
						bad = append(bad, Finding{
							Analyzer: "lintdirective",
							Pos:      pos,
							Message:  fmt.Sprintf("malformed //lint:%s annotation: want \"//lint:%s <reason>\" with a non-empty reason", fields[0], fields[0]),
						})
					}
					continue
				}
				if len(fields) == 0 || (fields[0] != "ignore" && fields[0] != "file-ignore") {
					bad = append(bad, Finding{
						Analyzer: "lintdirective",
						Pos:      pos,
						Message:  fmt.Sprintf("unknown //lint: directive %q (want ignore, file-ignore, hotpath or coldpath)", text),
					})
					continue
				}
				if len(fields) < 3 {
					bad = append(bad, Finding{
						Analyzer: "lintdirective",
						Pos:      pos,
						Message:  fmt.Sprintf("malformed //lint:%s directive: want \"//lint:%s <checks> <reason>\" with a non-empty reason", fields[0], fields[0]),
					})
					continue
				}
				names := strings.Split(fields[1], ",")
				badName := false
				for _, n := range names {
					if !known[n] {
						bad = append(bad, Finding{
							Analyzer: "lintdirective",
							Pos:      pos,
							Message:  fmt.Sprintf("unknown analyzer %q in //lint:%s directive; registered checks are %s (or \"all\")", n, fields[0], strings.Join(sortedNames(known), ", ")),
						})
						badName = true
					}
				}
				if badName {
					// A typoed name must not silently suppress nothing
					// while looking intentional; report it (above) and
					// skip the whole directive.
					continue
				}
				switch fields[0] {
				case "file-ignore":
					set := sup.file[pos.Filename]
					if set == nil {
						set = make(map[string]bool)
						sup.file[pos.Filename] = set
					}
					for _, n := range names {
						set[n] = true
					}
				case "ignore":
					byLine := sup.line[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						sup.line[pos.Filename] = byLine
					}
					// A trailing directive on a multi-line statement must
					// cover every line the statement spans, not just the
					// line the comment sits on.
					start, end := directiveSpan(fset, f, pos.Line)
					for ln := start; ln <= end; ln++ {
						set := byLine[ln]
						if set == nil {
							set = make(map[string]bool)
							byLine[ln] = set
						}
						for _, n := range names {
							set[n] = true
						}
					}
				}
			}
		}
	}
	return sup, bad
}

// directiveSpan returns the line range a //lint:ignore directive on the
// given line should cover. A directive is trailing when some statement
// *ends* on its line; the span of the smallest such statement is covered
// in full, so a trailing comment on the last line of a multi-line
// statement reaches back to the first line (where the finding is
// positioned). Otherwise the directive sits on its own line above the
// code and covers only itself — suppressed() already looks one line up
// from each finding.
func directiveSpan(fset *token.FileSet, f *ast.File, line int) (start, end int) {
	start, end = line, line
	best := -1
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		sl := fset.Position(s.Pos()).Line
		el := fset.Position(s.End()).Line
		if el == line && sl <= line {
			if span := el - sl; best == -1 || span < best {
				best, start = span, sl
			}
		}
		return true
	})
	return start, end
}

// sortedNames flattens a name set for error messages, dropping the
// wildcard pseudo-names.
func sortedNames(known map[string]bool) []string {
	var out []string
	for n := range known {
		if n != "all" && n != "lintdirective" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
