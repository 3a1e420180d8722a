// Package analyzertest runs an analyzer against a fixture package and
// checks its diagnostics against expected-diagnostic annotations in the
// fixture source. An annotation is a trailing comment of the form
//
//	// want "substring" ["substring" ...]
//
// on the line the diagnostic is reported at. Every diagnostic must
// match an annotation on its line (substring match) and every
// annotation must be matched by exactly one diagnostic.
package analyzertest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads the fixture package rooted at dir (relative to the test's
// working directory) and checks a's diagnostics against its `// want`
// annotations. Fixture files may import module packages such as
// repro/internal/rng; they are resolved against the enclosing module.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		t.Fatalf("find module root: %v", err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatalf("new loader: %v", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("abs %s: %v", dir, err)
	}
	pkg, err := loader.LoadDir(abs, "fixture/"+a.Name+"/"+filepath.Base(abs))
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	wants := collectWants(t, pkg)
	// Facts span every package the fixture pulled in, so deprecation
	// marks on module packages (such as the ctxflow fixture's
	// shim.RunCtx) are visible to the analyzer under test.
	facts := analysis.NewFacts(loader.Packages())
	for _, d := range analysis.RunAnalyzerFacts(a, pkg, facts) {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		if !wants.match(key, d.Message) {
			t.Errorf("unexpected diagnostic at %s:%d: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	wants.reportMisses(t)
}

type want struct {
	key     string // file:line
	pattern string
	matched bool
}

type wantSet struct{ wants []*want }

func (ws *wantSet) match(key, message string) bool {
	for _, w := range ws.wants {
		if !w.matched && w.key == key && strings.Contains(message, w.pattern) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) reportMisses(t *testing.T) {
	t.Helper()
	for _, w := range ws.wants {
		if !w.matched {
			t.Errorf("missed diagnostic at %s: want message containing %q", w.key, w.pattern)
		}
	}
}

var wantRE = regexp.MustCompile(`want((?:\s+"(?:[^"\\]|\\.)*")+)`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func collectWants(t *testing.T, pkg *analysis.Package) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, f := range pkg.Files {
		filename := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					pattern, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", filename, line, q, err)
					}
					ws.wants = append(ws.wants, &want{
						key:     fmt.Sprintf("%s:%d", filename, line),
						pattern: pattern,
					})
				}
			}
		}
	}
	return ws
}
