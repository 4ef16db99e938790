package lint

import (
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads testdata/<name> as a single package and relabels
// it with a virtual module-relative directory, so path-scoped rules see
// the fixture as if it lived inside the module.
func loadFixture(t *testing.T, name, virtualDir string) *Package {
	t.Helper()
	return loadFixtureTyped(t, name, map[string]string{".": virtualDir})[0]
}

// loadFixtureTyped loads testdata/<name> — the fixture may be a
// multi-package module with its own go.mod — and relabels each package per dirs (fixture-relative dir → virtual
// module-relative dir). Fixtures must type-check: a type error here is
// a broken fixture, not a tolerated condition.
func loadFixtureTyped(t *testing.T, name string, dirs map[string]string) []*Package {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no packages", name)
	}
	for _, pkg := range pkgs {
		for _, msg := range pkg.TypeErrors {
			t.Errorf("fixture %s: type error: %s", name, msg)
		}
		virtual, ok := dirs[pkg.Dir]
		if !ok {
			t.Fatalf("fixture %s: unexpected package dir %q", name, pkg.Dir)
		}
		pkg.Dir = virtual
		for _, f := range pkg.Files {
			f.Path = path.Join(virtual, path.Base(f.Path))
		}
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wants extracts the `// want "substring"` expectations of a fixture,
// keyed by file path and line.
type wantKey struct {
	path string
	line int
}

func collectWants(t *testing.T, pkg *Package) map[wantKey]string {
	t.Helper()
	wants := make(map[wantKey]string)
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := f.Fset.Position(c.Pos()).Line
				wants[wantKey{f.Path, line}] = m[1]
			}
		}
	}
	return wants
}

// checkFixture runs the rules over the fixture and matches findings
// against the want comments, both ways.
func checkFixture(t *testing.T, pkg *Package, rules []Rule) {
	t.Helper()
	checkFixtures(t, []*Package{pkg}, rules)
}

// checkFixtures is checkFixture over a multi-package fixture.
func checkFixtures(t *testing.T, pkgs []*Package, rules []Rule) {
	t.Helper()
	wants := make(map[wantKey]string)
	for _, pkg := range pkgs {
		for key, want := range collectWants(t, pkg) {
			wants[key] = want
		}
	}
	matched := make(map[wantKey]bool)
	for _, fd := range Run(pkgs, rules) {
		key := wantKey{fd.Path, fd.Line}
		want, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding: %s", fd)
			continue
		}
		if !strings.Contains(fd.Rule+": "+fd.Message, want) {
			t.Errorf("finding at %s:%d does not match want %q: %s", fd.Path, fd.Line, want, fd)
			continue
		}
		matched[key] = true
	}
	for key := range wants {
		if !matched[key] {
			t.Errorf("missing finding at %s:%d (want %q)", key.path, key.line, wants[key])
		}
	}
}

func TestCtxCheckpointRule(t *testing.T) {
	pkg := loadFixture(t, "ctxcheckpoint", "internal/solver")
	checkFixture(t, pkg, []Rule{CtxCheckpoint{}})
}

func TestCtxCheckpointOutOfScope(t *testing.T) {
	pkg := loadFixture(t, "ctxcheckpoint", "internal/render")
	if got := Run([]*Package{pkg}, []Rule{CtxCheckpoint{}}); len(got) != 0 {
		t.Errorf("rule fired outside its package scope: %v", got)
	}
}

func TestAPIParityRule(t *testing.T) {
	pkg := loadFixture(t, "apiparity", ".")
	checkFixture(t, pkg, []Rule{APIParity{}})
}

func TestAPIParityOutOfScope(t *testing.T) {
	pkg := loadFixture(t, "apiparity", "internal/core")
	if got := Run([]*Package{pkg}, []Rule{APIParity{}}); len(got) != 0 {
		t.Errorf("rule fired outside the root package: %v", got)
	}
}

func TestDeterminismRule(t *testing.T) {
	pkg := loadFixture(t, "determinism", "internal/core")
	checkFixture(t, pkg, []Rule{Determinism{}})
}

func TestDeterminismBenchExemption(t *testing.T) {
	pkg := loadFixture(t, "determinismbench", "internal/bench")
	if got := Run([]*Package{pkg}, []Rule{Determinism{}}); len(got) != 0 {
		t.Errorf("time.Now flagged in internal/bench, which is exempt: %v", got)
	}
}

func TestDeterminismObsExemption(t *testing.T) {
	pkg := loadFixture(t, "determinismobs", "internal/obs")
	if got := Run([]*Package{pkg}, []Rule{Determinism{}}); len(got) != 0 {
		t.Errorf("time.Now flagged in internal/obs, which is allowlisted: %v", got)
	}
}

func TestDeterminismObsScopeOnly(t *testing.T) {
	// The same fixture relabeled as a solver package must be flagged:
	// the exemption is the package allowlist, not the file contents.
	pkg := loadFixture(t, "determinismobs", "internal/core")
	got := Run([]*Package{pkg}, []Rule{Determinism{}})
	if len(got) != 1 || !strings.Contains(got[0].Message, "time.Now") {
		t.Errorf("expected exactly one time.Now finding outside the allowlist, got %v", got)
	}
}

func TestCloseCheckRule(t *testing.T) {
	pkg := loadFixture(t, "closecheck", "cmd/fixture")
	checkFixture(t, pkg, []Rule{CloseCheck{}})
}

func TestCloseCheckOutOfScope(t *testing.T) {
	pkg := loadFixture(t, "closecheck", "internal/data")
	if got := Run([]*Package{pkg}, []Rule{CloseCheck{}}); len(got) != 0 {
		t.Errorf("rule fired outside cmd/: %v", got)
	}
}

func TestNakedGoroutineRule(t *testing.T) {
	pkg := loadFixture(t, "nakedgoroutine", "internal/util")
	checkFixture(t, pkg, []Rule{NakedGoroutine{}})
}

func TestNakedGoroutineParallelExemption(t *testing.T) {
	pkg := loadFixture(t, "parallelexempt", "internal/bench")
	if got := Run([]*Package{pkg}, []Rule{NakedGoroutine{}}); len(got) != 0 {
		t.Errorf("internal/bench/parallel.go must be exempt: %v", got)
	}
}

// sharedMutationDirs maps the sharedmutation fixture module's packages
// into the virtual tree the rule's scoping expects.
var sharedMutationDirs = map[string]string{
	"bench": "internal/bench",
	"data":  "internal/data",
	"graph": "internal/graph",
}

func TestSharedMutationRule(t *testing.T) {
	pkgs := loadFixtureTyped(t, "sharedmutation", sharedMutationDirs)
	checkFixtures(t, pkgs, []Rule{SharedMutation{}})
}

// TestSharedMutationOutOfScope: the rule only concerns the bench
// harness; the same code anywhere else is not in its jurisdiction.
func TestSharedMutationOutOfScope(t *testing.T) {
	pkgs := loadFixtureTyped(t, "sharedmutation", map[string]string{
		"bench": "internal/core",
		"data":  "internal/data",
		"graph": "internal/graph",
	})
	if got := Run(pkgs, []Rule{SharedMutation{}}); len(got) != 0 {
		t.Errorf("rule fired outside internal/bench: %v", got)
	}
}

func TestCtxPropagationRule(t *testing.T) {
	pkgs := loadFixtureTyped(t, "ctxpropagation", map[string]string{".": "internal/solver"})
	checkFixtures(t, pkgs, []Rule{CtxPropagation{}})
}

// The *typed fixtures hold violations that only resolved types and
// objects expose: a context behind a named type, a map behind a
// cross-package field, a file behind an io.Closer.

func TestCtxCheckpointTyped(t *testing.T) {
	pkgs := loadFixtureTyped(t, "ctxcheckpointtyped", map[string]string{".": "internal/solver"})
	checkFixtures(t, pkgs, []Rule{CtxCheckpoint{}})
}

func TestDeterminismTyped(t *testing.T) {
	pkgs := loadFixtureTyped(t, "determinismtyped", map[string]string{".": "internal/core"})
	checkFixtures(t, pkgs, []Rule{Determinism{}})
}

func TestCloseCheckTyped(t *testing.T) {
	pkgs := loadFixtureTyped(t, "closechecktyped", map[string]string{".": "cmd/fixture"})
	checkFixtures(t, pkgs, []Rule{CloseCheck{}})
}

// TestDirectiveHygiene covers the lint-directive pseudo-rule: stale,
// malformed, and unknown //lint: comments are findings. Expectations
// are inline here because the directive itself occupies the line a want
// comment would use.
func TestDirectiveHygiene(t *testing.T) {
	pkg := loadFixture(t, "directives", "internal/x")
	got := Run([]*Package{pkg}, AllRules())
	want := []struct {
		line int
		frag string
	}{
		{7, "unused //lint:ignore"},
		{10, `unknown rule "nosuchrule"`},
		{13, "needs a rule list and a reason"},
		{16, `unknown lint directive "lint:frobnicate"`},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Line != w.line || got[i].Rule != directiveRule || !strings.Contains(got[i].Message, w.frag) {
			t.Errorf("finding %d = %s; want line %d containing %q", i, got[i], w.line, w.frag)
		}
	}
}

// TestDirectiveUnusedSkippedOnPartialRun: a filtered run cannot tell a
// stale directive from one whose rule was not executed, so the unused
// check must stay quiet.
func TestDirectiveUnusedSkippedOnPartialRun(t *testing.T) {
	pkg := loadFixture(t, "nakedgoroutine", "internal/util")
	for _, fd := range Run([]*Package{pkg}, []Rule{CtxCheckpoint{}}) {
		if strings.Contains(fd.Message, "unused") {
			t.Errorf("unused-directive finding on a partial run: %s", fd)
		}
	}
}

func TestFindingString(t *testing.T) {
	fd := Finding{Path: "cmd/x/main.go", Line: 12, Col: 3, Rule: "closecheck", Message: "boom"}
	if got, want := fd.String(), "cmd/x/main.go:12: closecheck: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestModuleCleanTyped is the gate the CI step relies on: the real
// module type-checks without errors, every package carries type info,
// and the full rule set has zero findings. Any new violation fails this
// test before it fails CI.
func TestModuleCleanTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("the module load reads GOROOT/src; skip in -short")
	}
	pkgs, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages from the module root; the loader is missing directories", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, msg := range pkg.TypeErrors {
			t.Errorf("package %s: type error: %s", pkg.Dir, msg)
		}
		if pkg.Types == nil || pkg.Info == nil {
			t.Errorf("package %s carries no type info", pkg.Dir)
		}
	}
	for _, fd := range Run(pkgs, AllRules()) {
		t.Errorf("module not lint-clean: %s", fd)
	}
}

// TestRunTimed: the timing side channel accounts for every rule and
// returns the same findings as Run.
func TestRunTimed(t *testing.T) {
	pkg := loadFixture(t, "nakedgoroutine", "internal/util")
	findings, times := RunTimed([]*Package{pkg}, AllRules())
	if len(findings) == 0 {
		t.Fatal("expected findings from the nakedgoroutine fixture")
	}
	if len(times) != len(AllRules())+1 {
		t.Fatalf("got %d rule timings, want %d (rules + summaries)", len(times), len(AllRules())+1)
	}
	seen := make(map[string]bool)
	for _, rt := range times {
		seen[rt.Rule] = true
	}
	for _, r := range AllRules() {
		if !seen[r.Name()] {
			t.Errorf("no timing entry for rule %s", r.Name())
		}
	}
	if !seen["(summaries)"] {
		t.Error("no timing entry for the cross-package summary pass")
	}
}

// TestLoadPattern: non-recursive and prefixed patterns resolve against
// the module root with module-relative paths.
func TestLoadPattern(t *testing.T) {
	pkgs, err := Load("../..", "cmd/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("cmd/... matched nothing")
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Dir, "cmd") {
			t.Errorf("pattern cmd/... loaded %s", p.Dir)
		}
		for _, f := range p.Files {
			if !strings.HasPrefix(f.Path, "cmd/") {
				t.Errorf("file path %s not module-relative", f.Path)
			}
		}
	}
}
