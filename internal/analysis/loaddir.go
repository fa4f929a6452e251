package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Golden-package loading for analysistest. Golden packages live under
// testdata/src/<name> (invisible to the go tool, so they never build into
// the module) and may import each other by bare directory name — which is
// how cross-package fact propagation gets in-band test coverage: a golden
// "dist" package importing a golden "clockutil" helper exercises the same
// fact flow as the real module. Standard-library imports resolve through
// `go list -export` build-cache export data, same as regular loads.

// LoadGolden loads golden package target from root (testdata/src),
// following imports that name sibling golden directories, and returns
// every loaded package in dependency order with target last. All
// packages share one FileSet.
func LoadGolden(root, target string) ([]*Package, error) {
	l := &goldenLoader{
		root:   root,
		fset:   token.NewFileSet(),
		types:  make(map[string]*types.Package),
		state:  make(map[string]int),
		stdlib: make(map[string]string),
	}
	// One shared gc importer for the whole load: importer.ForCompiler
	// caches per instance, and a fresh instance per import would hand out
	// distinct *types.Package identities for the same stdlib package
	// (context's time.Duration ≠ the golden file's time.Duration). The
	// lookup closure reads l.stdlib by reference, so export paths
	// resolved later are visible to it.
	l.imp = exportImporter(l.fset, nil, l.stdlib)
	if err := l.load(target); err != nil {
		return nil, err
	}
	return l.pkgs, nil
}

type goldenLoader struct {
	root   string
	fset   *token.FileSet
	pkgs   []*Package
	types  map[string]*types.Package
	state  map[string]int // 0 unvisited, 1 loading, 2 done
	stdlib map[string]string
	imp    types.Importer // shared gc importer, one identity per stdlib package
}

func (l *goldenLoader) load(name string) error {
	switch l.state[name] {
	case 2:
		return nil
	case 1:
		return fmt.Errorf("mglint: golden import cycle through %q", name)
	}
	l.state[name] = 1
	dir := filepath.Join(l.root, name)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("mglint: no Go files in %s", dir)
	}
	sort.Strings(names)
	files, err := parseFiles(l.fset, names)
	if err != nil {
		return err
	}

	var external []string
	seen := map[string]bool{}
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || path == "unsafe" || seen[path] {
				continue
			}
			seen[path] = true
			if l.isGolden(path) {
				if err := l.load(path); err != nil {
					return err
				}
			} else {
				external = append(external, path)
			}
		}
	}
	if err := l.resolveStdlib(dir, external); err != nil {
		return err
	}

	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if p, ok := l.types[path]; ok {
			return p, nil
		}
		return l.imp.Import(path)
	})
	tpkg, info, err := typecheck(l.fset, name, files, imp)
	if err != nil {
		return fmt.Errorf("mglint: type-checking %s: %v", dir, err)
	}
	l.types[name] = tpkg
	l.pkgs = append(l.pkgs, &Package{Path: name, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info})
	l.state[name] = 2
	return nil
}

// isGolden reports whether an import path names a sibling golden package
// directory under root.
func (l *goldenLoader) isGolden(path string) bool {
	if l.state[path] != 0 {
		return true
	}
	fi, err := os.Stat(filepath.Join(l.root, path))
	return err == nil && fi.IsDir()
}

// resolveStdlib fills the export-data map for non-golden imports through
// `go list -export`, once per batch of unresolved paths.
func (l *goldenLoader) resolveStdlib(dir string, paths []string) error {
	var missing []string
	for _, p := range paths {
		if _, ok := l.stdlib[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, missing...)
	out, err := goOutput(dir, args...)
	if err != nil {
		return fmt.Errorf("mglint: resolving testdata imports: %v", err)
	}
	entries, err := decodeList(strings.NewReader(out))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Export != "" {
			l.stdlib[e.ImportPath] = e.Export
		}
	}
	return nil
}
