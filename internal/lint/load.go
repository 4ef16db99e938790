package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load resolves Go-style package patterns against root, parses every
// matched file and type-checks the result. A pattern is either a
// directory path ("./cmd/mcfscli", ".") or a recursive prefix ("./...",
// "internal/..."). Paths in the returned packages are module-relative
// to root. Directories named testdata or vendor, and names starting
// with "." or "_", are skipped — the same convention the go tool uses —
// which keeps this package's own deliberately-violating fixtures out of
// a module-wide run.
//
// The type-check is best-effort (typed.go): a package that fails to
// type-check keeps partial info and records its errors in
// Package.TypeErrors rather than failing the load — the build gate, not
// the linter, owns rejecting invalid Go. An I/O or parse failure
// returns an error.
func Load(root string, patterns ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	pkgs, err := parsePatterns(fset, root, patterns...)
	if err != nil {
		return nil, err
	}
	typeCheckAll(fset, root, pkgs)
	return pkgs, nil
}

// parsePatterns resolves the patterns and parses every matched package
// into fset.
func parsePatterns(fset *token.FileSet, root string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	byDir := make(map[string]*Package)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		if pat == "" {
			pat = "."
		}
		start := filepath.Join(root, filepath.FromSlash(pat))
		info, err := os.Stat(start)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: %s is not a directory", start)
		}
		if !recursive {
			if err := loadDir(fset, root, start, byDir); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != start && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return loadDir(fset, root, path, byDir)
		})
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}

	pkgs := make([]*Package, 0, len(byDir))
	for _, p := range byDir {
		sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Path < p.Files[j].Path })
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Dir < pkgs[j].Dir })
	if len(pkgs) == 0 {
		// A pattern that resolves to directories but no Go files is a
		// user error (a typo'd path, a tree of testdata): a silent
		// 0-finding exit would report a clean bill of health on code
		// that was never looked at.
		return nil, fmt.Errorf("lint: no Go packages match %s", strings.Join(patterns, " "))
	}
	return pkgs, nil
}

// loadDir parses the .go files directly inside dir into byDir, keyed
// and labelled by the directory's path relative to root.
func loadDir(fset *token.FileSet, root, dir string, byDir map[string]*Package) error {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	rel = filepath.ToSlash(rel)
	if byDir[rel] != nil {
		return nil // already loaded via an overlapping pattern
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	var files []*File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		full := filepath.Join(dir, name)
		astf, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		files = append(files, &File{
			Fset: fset,
			AST:  astf,
			Path: filepath.ToSlash(filepath.Join(rel, name)),
			Test: strings.HasSuffix(name, "_test.go"),
		})
	}
	if len(files) > 0 {
		byDir[rel] = &Package{Dir: rel, Files: files}
	}
	return nil
}
