package bestpeer

// The reachability fence over internal/ (ROADMAP aim 2). Roots: main of
// every command, example and benchmark/; init and var initializers of the
// packages those or the facade link; the facade's exports. An identifier
// used in a live declaration is live, and so is a method of a live type
// that implements an interface the module uses or one of stdIfaces. What
// under internal/ is not reached is listed with its reason in
// testdata/deadcode.allow, compared exactly, so the list only shrinks. An
// unlinked package is unreachable whole, so this is also the package-level
// fence; deadcodeExempt spares the test-support packages.

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"

	"bestpeer/internal/vet"
)

var deadcodeExempt = map[string]bool{
	"bestpeer/internal/transport/faultnet": true,
	"bestpeer/internal/wire/wiretest":      true,
}

// stdIfaces may be satisfied unnamed: fmt reaches String through %v.
var stdIfaces = strings.Fields(`fmt.Stringer fmt.Formatter encoding.TextMarshaler
	encoding.TextUnmarshaler encoding/json.Marshaler encoding/json.Unmarshaler
	net/http.Handler io.Reader io.Writer io.Closer io.ReaderAt io.WriterAt io.WriterTo
	io.ReaderFrom sort.Interface container/heap.Interface net.Conn net.Listener
	go/types.Importer flag.Value`)

const internalPrefix = "bestpeer/internal/"

type deadDecl struct {
	pkg  *vet.Package
	node ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
}

type reacher struct {
	decls  map[types.Object]*deadDecl
	live   map[types.Object]bool
	queue  []types.Object
	ifaces []*types.Interface
}

func (r *reacher) mark(o types.Object) {
	if r.decls[o] != nil && !r.live[o] {
		r.live[o] = true
		r.queue = append(r.queue, o)
	}
}

// eachUse calls fn with the object every identifier under n refers to.
func eachUse(n ast.Node, info *types.Info, fn func(types.Object)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
			fn(info.Uses[id])
		}
		return true
	})
}

// drain follows edges until nothing new is reached.
func (r *reacher) drain() {
	for len(r.queue) > 0 {
		o := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		eachUse(r.decls[o].node, r.decls[o].pkg.Info, r.mark)
		named, ok := o.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isType := o.(*types.TypeName); !isType || types.IsInterface(named) {
			r.mark(named.Obj()) // an iota group names its consts' type once
			continue
		}
		ptr := types.NewPointer(named)
		for _, it := range r.ifaces {
			if types.Implements(ptr, it) {
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
					r.mark(m)
				}
			}
		}
	}
}

// imports adds tp to out, then what it imports that keep accepts.
func imports(tp *types.Package, keep func(string) bool, out map[string]*types.Package) {
	if out[tp.Path()] == nil && keep(tp.Path()) {
		out[tp.Path()] = tp
		for _, imp := range tp.Imports() {
			imports(imp, keep, out)
		}
	}
}

func declName(o types.Object) string {
	name := strings.TrimPrefix(o.Pkg().Path(), internalPrefix) + "."
	if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
		name += strings.TrimPrefix(recv, "*") + "."
	}
	return name + o.Name()
}

// checkAllow compares one section of testdata/deadcode.allow with found.
func checkAllow(t *testing.T, section string, found map[string]bool) {
	data, err := os.ReadFile("testdata/deadcode.allow")
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(data), "\n["+section+"]\n")
	body, _, _ = strings.Cut(body, "\n[")
	listed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if name, reason, _ := strings.Cut(strings.TrimSpace(line), " "); name != "" && name[0] != '#' {
			if listed[name] = true; strings.TrimSpace(reason) == "" {
				t.Errorf("[%s] %s: listed without a reason", section, name)
			}
		}
	}
	for name := range found {
		if !listed[name] {
			t.Errorf("[%s] %s: not reached, and not in testdata/deadcode.allow", section, name)
		}
	}
	for name := range listed {
		if !found[name] {
			t.Errorf("[%s] %s: in testdata/deadcode.allow but no longer a finding; delete the line", section, name)
		}
	}
}

func TestDeadCode(t *testing.T) {
	if raceEnabled {
		t.Skip("static analysis: the race detector adds nothing")
	}
	pkgs, err := vet.Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	r := &reacher{decls: map[types.Object]*deadDecl{}, live: map[types.Object]bool{}}
	byPath := map[string]*vet.Package{}
	starts := map[string][]ast.Node{} // init bodies and var initializers
	var roots []*types.Package        // the binaries
	std, linked := map[string]*types.Package{}, map[string]*types.Package{}
	seen := map[types.Type]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[typ] {
			seen[typ] = true
			r.ifaces = append(r.ifaces, it)
		}
	}
	for _, p := range pkgs {
		byPath[p.Path] = p
		imports(p.Types, func(string) bool { return true }, std)
		if p.Types.Name() == "main" {
			roots = append(roots, p.Types)
		}
		for _, tv := range p.Info.Types {
			addIface(tv.Type)
		}
		add := func(id *ast.Ident, n ast.Node) {
			if id.Name != "_" {
				r.decls[p.Info.Defs[id]] = &deadDecl{pkg: p, node: n}
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						starts[p.Path] = append(starts[p.Path], d)
					} else {
						add(d.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							add(ts.Name, ts)
						} else if vs, ok := s.(*ast.ValueSpec); ok {
							for i, id := range vs.Names {
								add(id, vs)
								if d.Tok == token.VAR && i < len(vs.Values) {
									starts[p.Path] = append(starts[p.Path], vs.Values[i])
								}
							}
						}
					}
				}
			}
		}
	}
	facade := byPath["bestpeer"]
	addIface(types.Universe.Lookup("error").Type())
	for _, name := range stdIfaces {
		i := strings.LastIndex(name, ".")
		if tp := std[name[:i]]; tp != nil && tp.Scope().Lookup(name[i+1:]) != nil {
			addIface(tp.Scope().Lookup(name[i+1:]).Type())
		}
	}
	for _, tp := range append(roots, facade.Types) {
		imports(tp, func(path string) bool { return byPath[path] != nil }, linked)
		r.mark(tp.Scope().Lookup("main")) // the facade has none
	}
	for path := range linked {
		for _, n := range starts[path] {
			eachUse(n, byPath[path].Info, r.mark)
		}
	}

	// A facade entry is read when a binary names what it re-exports.
	binaryNames := map[types.Object]bool{}
	for _, tp := range roots {
		for _, o := range byPath[tp.Path()].Info.Uses {
			binaryNames[o] = o.Pkg() != nil && strings.HasPrefix(o.Pkg().Path(), internalPrefix)
		}
	}
	unread := map[string]bool{}
	for _, name := range facade.Types.Scope().Names() {
		if o := facade.Types.Scope().Lookup(name); o.Exported() {
			r.mark(o)
			unread[name] = true
			eachUse(r.decls[o].node, facade.Info, func(u types.Object) {
				if binaryNames[u] {
					delete(unread, name)
				}
			})
		}
	}
	r.drain()

	found, lines := map[string]bool{}, 0
	for o, d := range r.decls {
		if !r.live[o] && strings.HasPrefix(d.pkg.Path, internalPrefix) && !deadcodeExempt[d.pkg.Path] {
			found[declName(o)] = true
			lines += d.pkg.Fset.Position(d.node.End()).Line - d.pkg.Fset.Position(d.node.Pos()).Line + 1
		}
	}
	t.Logf("%d unreachable declarations (%d lines); %d facade entries no binary reads", len(found), lines, len(unread))
	checkAllow(t, "unreachable", found)
	checkAllow(t, "facade", unread)
}
