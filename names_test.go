package eclipse

// The exported-name check: every exported identifier declared under
// internal/ is referenced by some non-test file (the benchmark module's
// included), satisfies an interface, or is listed below with the reason
// it stays exported. It is built on go/parser and go/types alone, with
// the standard library type-checked from source.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unreferencedNames lists the exported names under internal/ that no
// non-test file references, each with why it stays. A name that gains a
// caller, or is deleted, must leave the list.
var unreferencedNames = map[string]string{
	// Observers the tests read state through and the serving and
	// simulation paths never need.
	"cluster.(*Backend).Name":            "tests find the backend a request was routed to",
	"flight.(*Table).Len":                "tests check that no flight is left open",
	"flight.(*Table).Waiters":            "tests wait for a flight to open before they send its follower",
	"media.(*SyncFramePool).Outstanding": "leak tests check every pooled frame came back",
	"media.(*SyncFramePool).PutAll":      "tests hand back a batch of frames",
	"metrics.(*Hist).Count":              "tests check a latency histogram counted a request",
	"mem.(*Memory).Resident":             "the root package's tests check which pages a run touched",
	"mem.(*Port).Name":                   "the timed-run digest names each memory port",
	"mem.(*Port).Stats":                  "the timed-run digest and the memory tests read port traffic",
	"shell.(*PIBus).Stats":               "the PI-bus tests read transaction counts",
	"shell.(*PIBus).Utilization":         "the PI-bus tests read bus occupancy",
	"shell.(*Shell).Config":              "the setup tests check a setup file's shell parameters",
	"slab.(*Pool).Outstanding":           "the gateway's body tests check every slab came back",
	// References for checks: each is what a test compares the serving
	// code against.
	"media.(*Frame).PSNR": "codec tests measure reconstruction quality; a transcode that reuses decisions will gate on it",
	"media.Predict":       "the kernel-contract harness checks PredictHP against it",
}

// TestExportedNamesReferenced fails on an exported name under internal/
// that nothing outside the tests uses and the list above does not name,
// and on a list entry that no longer applies.
func TestExportedNamesReferenced(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	got := unreferencedExports(t, map[string]string{".": "eclipse", "benchmark": "eclipse/benchmark"})
	for _, problem := range listProblems(got, unreferencedNames) {
		t.Error(problem)
	}

	// The negative control: a throwaway module whose only uses of an
	// unused function and an unused method are in a test file, beside a
	// method that only satisfies fmt.Stringer; listing one of the two and
	// a name that is not found must leave two problems.
	t.Run("negative-control", func(t *testing.T) {
		dir := t.TempDir()
		for name, src := range map[string]string{
			"go.mod":               "module m\n",
			"main.go":              "package main\n\nimport (\n\t\"fmt\"\n\n\t\"m/internal/p\"\n)\n\nfunc main() { fmt.Println(p.Used(p.T{})) }\n",
			"internal/p/p.go":      "package p\n\ntype T struct{}\n\nfunc (T) String() string { return \"\" }\n\nfunc (T) Idle() {}\n\nfunc Used(T) int { return 0 }\n\nfunc Dead() {}\n",
			"internal/p/p_test.go": "package p\n\nfunc init() { Dead(); T{}.Idle() }\n",
		} {
			file := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got := unreferencedExports(t, map[string]string{dir: "m"})
		if want := []string{"p.Dead", "p.T.Idle"}; !slices.Equal(got, want) {
			t.Fatalf("found %q, want %q", got, want)
		}
		if problems := listProblems(got, map[string]string{"p.Dead": "", "p.Gone": ""}); len(problems) != 2 {
			t.Fatalf("want the unlisted p.T.Idle and the stale p.Gone, got %q", problems)
		}
	})
}

// listProblems names each found name the allowlist lacks and each
// allowlist entry that was not found.
func listProblems(found []string, allow map[string]string) (problems []string) {
	for _, name := range found {
		if _, ok := allow[name]; !ok {
			problems = append(problems, name+" is exported but no non-test file uses it: unexport or delete it, or list it with a reason")
		}
	}
	for name := range allow {
		if !slices.Contains(found, name) {
			problems = append(problems, name+" is listed as unreferenced but is used or gone: drop it from the list")
		}
	}
	return problems
}

// unreferencedExports type-checks the non-test files of the modules
// (directory → module path) and returns, sorted, every exported name
// declared under a module's internal/ that no non-test file references,
// leaving out methods that satisfy an interface.
func unreferencedExports(t *testing.T, modules map[string]string) []string {
	t.Helper()
	ld := &loader{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)
	var internal []string // import paths of the packages under internal/
	for dir, mod := range modules {
		paths, err := ld.parseModule(dir, mod)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if strings.HasPrefix(p, mod+"/internal/") {
				internal = append(internal, p)
			}
		}
	}
	for p := range ld.files {
		if _, err := ld.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range ld.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	ifaces := interfaceMethods(ld.pkgs)
	var out []string
	for _, p := range internal {
		scope := ld.pkgs[p].Scope()
		qual := ld.pkgs[p].Name() + "."
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				out = append(out, qual+name)
			}
			tn, isType := obj.(*types.TypeName)
			named, ok := obj.Type().(*types.Named)
			if !isType || tn.IsAlias() || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] || satisfiesInterface(named, m.Name(), ifaces) {
					continue
				}
				recv := name
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + name + ")"
				}
				out = append(out, qual+recv+"."+m.Name())
			}
		}
	}
	slices.Sort(out)
	return out
}

// loader type-checks a set of parsed packages from source, importing
// the standard library through std and caching every result.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File    // import path → non-test files
	pkgs  map[string]*types.Package // type-checked, by import path
	info  *types.Info               // the uses of every package in files
}

// parseModule parses the non-test Go files of the module at dir whose
// build constraints build.Default accepts, skipping testdata and nested
// modules, and returns the import paths it found.
func (ld *loader) parseModule(dir, mod string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if file != dir && (name == "testdata" || strings.HasPrefix(name, ".") || exists(filepath.Join(file, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(file), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(ld.fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(file))
		if err != nil {
			return err
		}
		p := path.Join(mod, filepath.ToSlash(rel))
		if ld.files[p] == nil {
			paths = append(paths, p)
		}
		ld.files[p] = append(ld.files[p], f)
		return nil
	})
	return paths, err
}

func exists(file string) bool {
	_, err := os.Stat(file)
	return err == nil
}

// Import type-checks a parsed package on first use and hands every other
// import path to the standard library's source importer.
func (ld *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := ld.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := ld.files[p]
	if !ok {
		pkg, err := ld.std.Import(p)
		ld.pkgs[p] = pkg
		return pkg, err
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(p, ld.fset, files, ld.info)
	ld.pkgs[p] = pkg
	return pkg, err
}

// interfaceMethods indexes every named interface of the packages, their
// imports, and the universe's error by method name.
func interfaceMethods(pkgs map[string]*types.Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(obj types.Object) {
		if _, ok := obj.(*types.TypeName); !ok {
			return
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
		}
	}
	add(types.Universe.Lookup("error"))
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			add(pkg.Scope().Lookup(name))
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg)
	}
	return out
}

// satisfiesInterface reports whether T or *T implements an interface
// that has a method called name, so calls through the interface use it.
func satisfiesInterface(named *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false // an uninstantiated generic type implements nothing
	}
	for _, iface := range ifaces[name] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
