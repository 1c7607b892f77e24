package repro

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowlistFile names the exported internal/ declarations that only tests
// reach, one per line: "path.Name" or "path.Type.Method", then a reason.
const allowlistFile = "testdata/unreferenced_exports.txt"

// TestEveryInternalExportIsReferenced type-checks the non-test files of
// this module and of perfbench and fails when an exported package-level
// func, method, type, var or const under internal/ has no reference. A
// declaration counts as referenced when
//
//  1. non-test code of either module uses it, in its own package too (a
//     declaration's uses of itself do not count, and neither do the
//     receivers of a type's own methods);
//  2. it is a method that implements an interface the program names, or
//     one the standard library calls for you: error, fmt.Stringer,
//     json.Marshaler and json.Unmarshaler, http.Handler, and errors'
//     Unwrap() error;
//  3. it is an exported method of a type that the bandwall facade
//     re-exports by alias, which makes it public API; or
//  4. the allowlist names it with a reason.
//
// Struct fields are out of scope, because encoding/json and reflection
// read them. The allowlist cannot rot: an entry without a reason, an entry
// that names no declaration and an entry that is referenced again all
// fail the test.
func TestEveryInternalExportIsReferenced(t *testing.T) {
	prog, err := loadProgram(map[string]string{".": "repro", "perfbench": "repro/perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(allowlistFile)
	if err != nil {
		t.Fatal(err)
	}
	used, err := prog.referenced()
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	seen := map[string]bool{}
	for _, c := range prog.internalExports() {
		seen[c.key] = true
		_, listed := allow[c.key]
		switch {
		case used[c.obj] && listed:
			problems = append(problems, fmt.Sprintf("%s: %s is referenced; remove its entry from %s", c.pos, c.key, allowlistFile))
		case !used[c.obj] && !listed:
			problems = append(problems, fmt.Sprintf("%s: %s has no non-test reference; delete it, or list it with a reason in %s", c.pos, c.key, allowlistFile))
		}
	}
	for key, reason := range allow {
		switch {
		case !seen[key]:
			problems = append(problems, fmt.Sprintf("%s: %s names no exported internal/ declaration", allowlistFile, key))
		case reason == "":
			problems = append(problems, fmt.Sprintf("%s: %s has no reason", allowlistFile, key))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// readAllowlist maps each entry of the allowlist to its reason. Blank
// lines and lines starting with # are skipped.
func readAllowlist(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(strings.Join(strings.Fields(line), " "), " ")
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s: %s is listed twice", name, key)
		}
		allow[key] = reason
	}
	return allow, sc.Err()
}

// program is every non-test package of the listed modules, type-checked
// from source, with the standard library imported from export data.
type program struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

// loadProgram type-checks every package under the given module roots
// (directory → module path). A module nested in another is walked only
// under its own root.
func loadProgram(modules map[string]string) (*program, error) {
	p := &program{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for root, mod := range modules {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || modules[dir] != "") {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			path := mod
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			p.dirs[path] = dir
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for path := range p.dirs {
		if _, err := p.Import(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Import type-checks a package of the program from its non-test files, and
// hands every other path to the standard-library importer.
func (p *program) Import(path string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := p.dirs[path]
	if !ok {
		return p.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		p.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path], p.files[path] = pkg, files
	return pkg, nil
}

// origin maps a method or field of an instantiated generic type back to
// its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// referenced returns the declarations that rules 1–3 mark as referenced.
func (p *program) referenced() (map[types.Object]bool, error) {
	used := map[types.Object]bool{}
	// Rule 1: every use outside the used declaration itself.
	for _, files := range p.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						p.markUses(used, d.Recv, p.info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv())
					}
					p.markUses(used, d.Type, p.info.Defs[d.Name])
					if d.Body != nil {
						p.markUses(used, d.Body, p.info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var self types.Object
						switch s := s.(type) {
						case *ast.TypeSpec:
							self = p.info.Defs[s.Name]
						case *ast.ValueSpec:
							if len(s.Names) == 1 {
								self = p.info.Defs[s.Names[0]]
							}
						}
						p.markUses(used, s, self)
					}
				}
			}
		}
	}
	// Rule 2: methods that implement an interface.
	ifaces, err := p.interfaces()
	if err != nil {
		return nil, err
	}
	for _, c := range p.internalExports() {
		fn, ok := c.obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		named := receiverNamed(fn)
		if named == nil || named.TypeParams().Len() > 0 {
			continue
		}
		for _, iface := range ifaces[fn.Name()] {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				used[fn] = true
				break
			}
		}
	}
	// Rule 3: the methods of a type the facade re-exports by alias.
	if facade := p.pkgs["repro/bandwall"]; facade != nil {
		for _, name := range facade.Scope().Names() {
			tn, ok := facade.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				ms := types.NewMethodSet(types.NewPointer(named))
				for i := 0; i < ms.Len(); i++ {
					used[origin(ms.At(i).Obj())] = true
				}
			}
		}
	}
	return used, nil
}

// markUses marks every object used under n, except self: the declaration
// n belongs to (for a method's receiver list, the receiver's type).
func (p *program) markUses(used map[types.Object]bool, n ast.Node, self types.Object) {
	if v, ok := self.(*types.Var); ok { // a receiver: the type it names
		if named := derefNamed(v.Type()); named != nil {
			self = named.Obj()
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := p.info.Uses[id]; o != nil && origin(o) != self {
				used[origin(o)] = true
			}
		}
		return true
	})
}

// interfaces indexes by method name every interface type that the
// program's non-test code names or uses, plus the ones the standard
// library calls without the program naming them.
func (p *program) interfaces() (map[string][]*types.Interface, error) {
	var all []types.Type
	for _, tv := range p.info.Types {
		all = append(all, tv.Type)
	}
	for _, o := range p.info.Uses {
		if tn, ok := o.(*types.TypeName); ok {
			all = append(all, tn.Type())
		}
	}
	for _, std := range []struct{ path, name string }{
		{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"}, {"net/http", "Handler"},
	} {
		pkg, err := p.std.Import(std.path)
		if err != nil {
			return nil, err
		}
		all = append(all, pkg.Scope().Lookup(std.name).Type())
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	all = append(all, errType, types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())

	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	for _, t := range all {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			continue
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	return byName, nil
}

// export is one exported package-level declaration under internal/.
type export struct {
	key string // path.Name or path.Type.Method
	pos string // file:line
	obj types.Object
}

// internalExports lists the exported funcs, methods, types, vars and
// consts declared under internal/, in file order.
func (p *program) internalExports() []export {
	var out []export
	add := func(path string, id *ast.Ident) {
		o := p.info.Defs[id]
		if o == nil || !id.IsExported() {
			return
		}
		key := path + "." + id.Name
		if fn, ok := o.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			named := receiverNamed(fn)
			if named == nil {
				return
			}
			key = path + "." + named.Obj().Name() + "." + id.Name
		}
		pos := p.fset.Position(id.Pos())
		out = append(out, export{key: key, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line), obj: o})
	}
	var paths []string
	for path := range p.files {
		if strings.HasPrefix(path, "repro/internal/") {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		for _, f := range p.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(path, d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(path, s.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(path, id)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// receiverNamed is the named type a method is declared on.
func receiverNamed(fn *types.Func) *types.Named {
	return derefNamed(fn.Type().(*types.Signature).Recv().Type())
}

func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
