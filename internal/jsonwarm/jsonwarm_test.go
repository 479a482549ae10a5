package jsonwarm

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// module is the import path of the repository's module, whose root is
// two directories up.
const module = "repro"

// TestListCoversEncodedTypes type-checks the program files under
// internal/ and fails when a value sent through encoding/json has a static
// type no List call names, or when a listed type is sent nowhere. A value
// is sent when it is the argument of json.Marshal, MarshalIndent or
// (*json.Encoder).Encode, or of a function that hands an interface
// parameter on to one (writeJSON, and so on), or when it is placed in an
// interface slot of a composite literal or map in a function that sends.
// A sent value whose static type is an interface the check cannot follow,
// or holds one elsewhere than in those slots, fails it too.
func TestListCoversEncodedTypes(t *testing.T) {
	c := &checker{fset: token.NewFileSet(), root: filepath.Join("..", ".."), pkgs: map[string]*checked{}}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	err := filepath.WalkDir(filepath.Join(c.root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(c.root, path)
		_, err = c.check(module + "/" + filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.sends()
	if len(s.listed) == 0 || len(s.sent) == 0 {
		t.Fatalf("found %d listed and %d sent types: the check sees nothing", len(s.listed), len(s.sent))
	}
	for _, p := range s.blind {
		t.Errorf("%s: the type sent here is an interface the check cannot follow", c.fset.Position(p))
	}
	for _, sent := range s.sent {
		if hides(sent.t, true, map[types.Type]bool{}) {
			t.Errorf("%s: %s holds an interface whose values the check cannot follow", c.fset.Position(sent.at), sent.t)
		}
		if !slices.ContainsFunc(s.listed, func(l typeAt) bool { return types.Identical(l.t, sent.t) }) {
			t.Errorf("%s: %s is sent through encoding/json but on no jsonwarm.List", c.fset.Position(sent.at), sent.t)
		}
	}
	for _, l := range s.listed {
		if !slices.ContainsFunc(s.sent, func(sent typeAt) bool { return types.Identical(l.t, sent.t) }) {
			t.Errorf("%s: %s is listed but sent through encoding/json nowhere", c.fset.Position(l.at), l.t)
		}
	}
}

// checker type-checks the module's packages from their program files,
// and the standard library through the source importer.
type checker struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*checked
}

// checked is one type-checked package; nil pkg: a directory without
// program files.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (c *checker) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return c.std.Import(path)
	}
	p, err := c.check(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (c *checker) check(path string) (*checked, error) {
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	p := &checked{info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	c.pkgs[path] = p
	dir := filepath.Join(c.root, strings.TrimPrefix(path, module))
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return p, nil
	} else if err != nil {
		return nil, err
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.pkg, err = (&types.Config{Importer: c}).Check(path, c.fset, p.files, p.info)
	return p, err
}

// typeAt is a type and where the check found it.
type typeAt struct {
	t  types.Type
	at token.Pos
}

// call is one call in a function declaration.
type call struct {
	p    *checked
	in   *types.Func
	expr *ast.CallExpr
}

// sends is what the check found: the listed types, the sent ones, and
// where a sent value's type could not be told.
type sends struct {
	listed, sent []typeAt
	blind        []token.Pos
}

func (c *checker) sends() sends {
	var calls []call
	called := map[*ast.Ident]bool{} // the identifiers that name a called function
	senders := map[*types.Func]*ast.FuncDecl{}
	decls := map[*types.Func]*ast.FuncDecl{}
	for path, p := range c.pkgs {
		if path == module+"/internal/jsonwarm" {
			continue // Warm sends the list itself
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				in := p.info.Defs[fd.Name].(*types.Func)
				decls[in] = fd
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if e, ok := n.(*ast.CallExpr); ok {
						calls = append(calls, call{p, in, e})
						called[funOf(e)] = true
					}
					return true
				})
			}
		}
	}
	// wrappers maps a function to its parameter that reaches a sink.
	wrappers := map[*types.Func]int{}
	sink := func(cl call) (int, bool) {
		fn := callee(cl)
		if fn == nil {
			return 0, false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
			switch fn.Name() {
			case "Marshal", "MarshalIndent", "Encode":
				return 0, true
			}
			return 0, false
		}
		i, ok := wrappers[fn]
		return i, ok
	}
	var s sends
	// Each pass follows sends one function further out, until a pass
	// finds no new wrapper; the last pass records what is sent.
	for grew := true; grew; {
		grew = false
		s = sends{}
		for _, cl := range calls {
			if fn := callee(cl); fn != nil && fn.Name() == "List" && fn.Pkg() != nil && fn.Pkg().Path() == module+"/internal/jsonwarm" {
				for _, a := range cl.expr.Args {
					s.listed = append(s.listed, typeAt{cl.p.info.TypeOf(a), a.Pos()})
				}
			}
			i, ok := sink(cl)
			if !ok || i >= len(cl.expr.Args) {
				continue
			}
			senders[cl.in] = decls[cl.in]
			arg := ast.Unparen(cl.expr.Args[i])
			if t := cl.p.info.TypeOf(arg); !types.IsInterface(t) {
				s.sent = append(s.sent, typeAt{t, arg.Pos()})
				continue
			}
			if j := paramIndex(cl, arg); j >= 0 {
				if _, ok := wrappers[cl.in]; !ok {
					wrappers[cl.in], grew = j, true
				}
				continue
			}
			s.blind = append(s.blind, arg.Pos())
		}
	}
	// A wrapper reached other than by a call hands its values on unseen.
	for _, p := range c.pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && !called[id] {
				if _, ok := wrappers[fn]; ok {
					s.blind = append(s.blind, id.Pos())
				}
			}
		}
	}
	for in, fd := range senders {
		s.slots(c.pkgOf(in), fd)
	}
	return s
}

// callee is the function a call names, or nil.
func callee(cl call) *types.Func {
	fn, _ := cl.p.info.Uses[funOf(cl.expr)].(*types.Func)
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

// paramIndex is the index of the parameter of the calling function that
// arg names, or -1.
func paramIndex(cl call, arg ast.Expr) int {
	id, ok := arg.(*ast.Ident)
	if !ok {
		return -1
	}
	params := cl.in.Type().(*types.Signature).Params()
	for i := range params.Len() {
		if params.At(i) == cl.p.info.Uses[id] {
			return i
		}
	}
	return -1
}

// funOf is the identifier a call's function is named by, or nil.
func funOf(e *ast.CallExpr) *ast.Ident {
	switch f := ast.Unparen(e.Fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

func (c *checker) pkgOf(fn *types.Func) *checked { return c.pkgs[fn.Pkg().Path()] }

// slots records the values fd places in an interface slot of a composite
// literal or of a map: encoding/json encodes each by its dynamic type.
func (s *sends) slots(p *checked, fd *ast.FuncDecl) {
	put := func(e ast.Expr) {
		if t := p.info.TypeOf(e); types.IsInterface(t) {
			s.blind = append(s.blind, e.Pos())
		} else {
			s.sent = append(s.sent, typeAt{t, e.Pos()})
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if slot, v := slotOf(p, n, e); slot != nil && types.IsInterface(slot) {
					put(v)
				}
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if ix, ok := l.(*ast.IndexExpr); ok && i < len(n.Rhs) {
					if m, ok := p.info.TypeOf(ix.X).Underlying().(*types.Map); ok && types.IsInterface(m.Elem()) {
						put(n.Rhs[i])
					}
				}
			}
		}
		return true
	})
}

// slotOf is the type of the slot element e of lit fills, and its value.
func slotOf(p *checked, lit *ast.CompositeLit, e ast.Expr) (types.Type, ast.Expr) {
	kv, _ := e.(*ast.KeyValueExpr)
	v := e
	if kv != nil {
		v = kv.Value
	}
	switch u := p.info.TypeOf(lit).Underlying().(type) {
	case *types.Map:
		return u.Elem(), v
	case *types.Slice:
		return u.Elem(), v
	case *types.Array:
		return u.Elem(), v
	case *types.Struct:
		if kv == nil {
			return u.Field(slices.Index(lit.Elts, e)).Type(), v
		}
		for i := range u.NumFields() {
			if f := u.Field(i); f.Name() == kv.Key.(*ast.Ident).Name {
				return f.Type(), v
			}
		}
	}
	return nil, v
}

// hides reports whether encoding a t can meet an interface value whose
// type the slot check does not see: one in an exported field, or the
// element of a map or slice inside t. The element of t itself, if t is a
// map or a slice (top), is a slot the check reads.
func hides(t types.Type, top bool, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Interface:
		return true
	case *types.Pointer:
		return hides(u.Elem(), false, seen)
	case *types.Array:
		return hides(u.Elem(), false, seen)
	case *types.Slice:
		return !(top && types.IsInterface(u.Elem())) && hides(u.Elem(), false, seen)
	case *types.Map:
		return !(top && types.IsInterface(u.Elem())) && hides(u.Elem(), false, seen)
	case *types.Struct:
		for i := range u.NumFields() {
			if f := u.Field(i); (f.Exported() || f.Embedded()) && hides(f.Type(), false, seen) {
				return true
			}
		}
	}
	return false
}
