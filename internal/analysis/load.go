package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, parsed and type-checked analysis unit.
type Package struct {
	Path  string // import path; test variants keep go list's "p [p.test]" form
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// FactsOnly marks a unit analyzed for fact export but not for
	// diagnostics: the plain variant of a test-augmented package. The
	// augmented variant re-reports everything the plain one would, but
	// importers depend on the plain variant, so it must still run — and
	// run first — for its facts.
	FactsOnly bool
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	ForTest    string
	GoFiles    []string
	ImportMap  map[string]string
}

// Load lists patterns with the go command and returns every module
// package — test-augmented variants preferred over their plain form, so
// _test.go files are analyzed too — parsed and type-checked against
// build-cache export data. It needs no network: `go list -export` compiles
// into the local build cache.
func Load(dir string, patterns ...string) ([]*Package, error) {
	modPath, err := goOutput(dir, "list", "-m")
	if err != nil {
		return nil, fmt.Errorf("mglint: resolving module path: %v", err)
	}
	modPath = strings.TrimSpace(modPath)

	args := append([]string{"list", "-test", "-deps", "-export", "-json=ImportPath,Name,Dir,Export,Standard,ForTest,GoFiles,ImportMap"}, patterns...)
	out, err := goOutput(dir, args...)
	if err != nil {
		return nil, fmt.Errorf("mglint: go list: %v", err)
	}
	entries, err := decodeList(strings.NewReader(out))
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	augmented := make(map[string]bool) // plain paths that have a test variant
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if e.ForTest != "" && e.ImportPath == e.ForTest+" ["+e.ForTest+".test]" {
			augmented[e.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, e := range entries {
		if !inModule(e, modPath) || strings.HasSuffix(e.ImportPath, ".test") {
			continue
		}
		pkg, err := typecheckEntry(fset, e, exports)
		if err != nil {
			return nil, err
		}
		// The "p [p.test]" variant supersedes p for reporting (same files
		// plus tests), but the plain variant still runs facts-only: other
		// packages import plain p, and their fact lookups must be served
		// before the augmented variant — which may import those very
		// packages — can run.
		pkg.FactsOnly = e.ForTest == "" && augmented[e.ImportPath]
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func inModule(e listEntry, modPath string) bool {
	if e.Standard {
		return false
	}
	path := e.ImportPath
	if e.ForTest != "" {
		path = e.ForTest
	}
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}

func decodeList(r io.Reader) ([]listEntry, error) {
	dec := json.NewDecoder(r)
	var entries []listEntry
	for {
		var e listEntry
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("mglint: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

func typecheckEntry(fset *token.FileSet, e listEntry, exports map[string]string) (*Package, error) {
	var names []string
	for _, f := range e.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(e.Dir, f)
		}
		names = append(names, f)
	}
	files, err := parseFiles(fset, names)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := typecheck(fset, plainPath(e.ImportPath), files, exportImporter(fset, e.ImportMap, exports))
	if err != nil {
		return nil, fmt.Errorf("mglint: type-checking %s: %v", e.ImportPath, err)
	}
	return &Package{Path: e.ImportPath, Dir: e.Dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// plainPath strips go list's " [p.test]" variant suffix.
func plainPath(p string) string {
	if i := strings.IndexByte(p, ' '); i >= 0 {
		return p[:i]
	}
	return p
}

func parseFiles(fset *token.FileSet, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("mglint: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// typecheck runs the types checker over files with every Info map filled.
func typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}

// exportImporter resolves imports through gc export data files: the import
// path goes through importMap (go list test-variant mapping),
// then the mapped path is read from its build-cache export file. One
// importer per package keeps test-variant and plain views of the same
// path from sharing a cache.
func exportImporter(fset *token.FileSet, importMap map[string]string, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("mglint: no export data for %q", path)
		}
		return os.Open(file)
	}
	gc := importer.ForCompiler(fset, "gc", lookup)
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		return gc.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func goOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), nil
}
