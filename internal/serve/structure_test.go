package serve_test

// The tree's structural guards: one test that parses every Go file under
// internal/ and checks, on declarations and call sites rather than text,
// that what a subtraction removed stays removed. Test files are held to
// the wire rules only (wireRules); every other rule reads the program,
// and one (testOnlyExports) reads every program file of the module. A
// later "one X" change adds a rule here. Every failure names the
// invariant and the ROADMAP section that records it.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// serveLines is the scheduler's line ratchet: internal/serve/serve.go may
// shrink, and a change that shrinks it lowers this number; none raises it.
const serveLines = 2037

// retired names may not be declared or referenced anywhere (a comment may
// still name them: comments are not part of the syntax tree).
var retired = map[string]string{
	"Recorder":            "the string recorder is gone; record into the trace.Ring the goroutine already has (ROADMAP, Observability architecture: one timeline, always on)",
	"BatchResults":        "a second result path; answer with engine.ResultFrame, read through HeadBackend.Results (ROADMAP, Batching architecture: one result frame, one Results)",
	"BatchResultsBackend": "a second result path; answer with engine.ResultFrame, read through HeadBackend.Results (ROADMAP, Batching architecture: one result frame, one Results)",
	"AppendResultHeader":  "a second result path; engine.WorkerLoop frames every result (ROADMAP, Batching architecture: one result frame, one Results)",
	"CancelRows":          "a second cancel method; cancel through engine.Head.CancelSession (ROADMAP, Batching architecture: one cancel rule)",
	"fullCancel":          "a whole-run cancel sentinel; engine.Head.CancelSession decides what stages hear (ROADMAP, Batching architecture: one cancel rule)",
	"RunIterative":        "a second driver; iterative inference is a serve without speculation (ROADMAP, Serving architecture: one driver)",
	"RunSpeculative":      "a second driver; the speculative baseline is a serve under the draft-then-await rule (ROADMAP, Serving architecture: one driver)",
	"specOK":              "a second speculation gate; pass 3 and launchRound read the optimism level (ROADMAP, Overload control architecture: one optimism level)",
	"updateBrownout":      "a second degradation ladder; the optimism level is recomputed by ladder alone (ROADMAP, Overload control architecture: one optimism level)",
	"AwaitResultWithin":   "a second result await; engine.Head.AwaitResult takes its budget from the oldest run's Deadline (ROADMAP, Fault tolerance architecture: one await)",
	"countedWaiter":       "a wrapper kept only to forward an optional capability; WaitRecv is part of comm.Endpoint (ROADMAP, Fault tolerance architecture: one await)",
	"getMsg":              "a second pool; run messages recycle with their run record through engine.Head.NewRun and Recycle (ROADMAP, Performance architecture: pooled messaging)",
	"putMsg":              "a second pool; run messages recycle with their run record through engine.Head.NewRun and Recycle (ROADMAP, Performance architecture: pooled messaging)",
	"getCtxs":             "a second pool; no run carries row contexts, so there are no context arrays to pool (ROADMAP, Batching architecture: one result frame, one Results)",
	"putCtxs":             "a second pool; no run carries row contexts, so there are no context arrays to pool (ROADMAP, Batching architecture: one result frame, one Results)",
	"NeedCtx":             "a side channel for row contexts; the head keeps none, and simbk's last stage reads each row's context from its KV cells (ROADMAP, Batching architecture: one result frame, one Results)",
	"Ctxs":                "row contexts on the run record; the head keeps none, and simbk's last stage reads each row's context from its KV cells (ROADMAP, Batching architecture: one result frame, one Results)",
}

// rankCalls are what only the rank routine calls: a head assembled, a
// stage's loop run, a head's schedule driven. Each has one call site
// under internal/, and all three share one function.
var rankCalls = []struct{ pkg, name string }{{"engine", "NewHead"}, {"engine", "WorkerLoop"}, {"serve", "Drive"}}

const rankWhy = "both backends serve through one rank routine and differ only in their token source (ROADMAP, Serving architecture: one driver, one rank routine)"

// placeCalls are what only the stage places and checks rows with: under
// internal/backend each is called in one function.
var placeCalls = []string{"PlaceRowsInto", "VisibleGroups"}

const stageWhy = "both backends' stages place rows, check what each sees and apply KV operations in one type, backend.Stage, and differ only in their Layers (ROADMAP, Serving architecture: one rank routine, one stage)"

// degradationFields may not be declared on serve.Scheduler: the breaker
// and brown-out are rungs of the one optimism level. (telemetry's atomics
// of the same names are the scrape-side mirrors and stay.)
var degradationFields = map[string]bool{"tripped": true, "brownout": true}

// shapeMethods are RunMsg methods that read a run's shape off its wire
// sections; a run's shape is its row groups (RunMsg.Groups).
var shapeMethods = map[string]bool{"Batched": true, "Ranged": true}

const shapeWhy = "reads a run's shape off its wire sections; use RunMsg.Groups (ROADMAP, Batching architecture: one run-message layout)"

type file struct {
	path string // slash-separated, relative to internal/
	ast  *ast.File
	test bool
}

func parseInternal(t *testing.T) (*token.FileSet, []file) {
	t.Helper()
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel("..", path)
		files = append(files, file{filepath.ToSlash(rel), f, strings.HasSuffix(path, "_test.go")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found under internal/")
	}
	return fset, files
}

// selector reports whether e is pkg.name (pkg "" matches any operand).
func selector(e ast.Expr, pkg, name string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != name {
		return false
	}
	if pkg == "" {
		return true
	}
	switch x := s.X.(type) {
	case *ast.Ident:
		return x.Name == pkg
	case *ast.SelectorExpr:
		return x.Sel.Name == pkg
	}
	return false
}

func TestStructure(t *testing.T) {
	fset, files := parseInternal(t)
	fail := func(pos token.Pos, format string, args ...any) {
		t.Helper()
		t.Errorf("%s: "+format, append([]any{fset.Position(pos)}, args...)...)
	}

	type call struct {
		pos      token.Pos
		pkg, fun string
	}
	var proposeCalls []call
	rankSites := make([][]call, len(rankCalls))
	placeFuncs := make([]map[string]token.Pos, len(placeCalls))
	for i := range placeFuncs {
		placeFuncs[i] = map[string]token.Pos{}
	}
	pendingTypes := 0
	for _, f := range files {
		wireRules(f, fail)
		if f.test {
			continue
		}
		pkg := f.ast.Name.Name
		inBackend := strings.HasPrefix(f.path, "backend/")
		for _, decl := range f.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case inBackend && fd.Recv != nil && fd.Name.Name == "ApplyKV" && !(pkg == "backend" && receiver(fd) == "Stage"):
				fail(fd.Pos(), "%s.%s.ApplyKV is declared: a second stage; %s", pkg, receiver(fd), stageWhy)
			case fd.Recv == nil && pkg == "core" && fd.Name.Name == "Run":
				fail(fd.Pos(), "core.Run is declared: a second driver; a single request is a one-session serve (ROADMAP, Serving architecture: one driver)")
			case fd.Recv != nil && shapeMethods[fd.Name.Name] && receiver(fd) == "RunMsg":
				fail(fd.Pos(), "RunMsg.%s is declared: it %s", fd.Name.Name, shapeWhy)
			}
			if fd.Body == nil {
				continue
			}
			fun := fd.Name.Name
			if fd.Recv != nil {
				fun = receiver(fd) + "." + fun
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				// A Propose implementation delegates.
				if selector(c.Fun, "", "Propose") && fd.Name.Name != "Propose" {
					proposeCalls = append(proposeCalls, call{c.Pos(), pkg, fun})
				}
				for i, rc := range rankCalls {
					if selector(c.Fun, rc.pkg, rc.name) || pkg == rc.pkg && isIdent(c.Fun, rc.name) {
						rankSites[i] = append(rankSites[i], call{c.Pos(), pkg, fun})
					}
				}
				for i, name := range placeCalls {
					if inBackend && selector(c.Fun, "", name) {
						placeFuncs[i][pkg+"."+fun] = c.Pos()
					}
				}
				return true
			})
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if why, ok := retired[n.Name]; ok {
					fail(n.Pos(), "%s: %s", n.Name, why)
				}
			case *ast.TypeSpec:
				if strings.HasPrefix(strings.ToLower(n.Name.Name), "pending") {
					pendingTypes++
				}
				if st, ok := n.Type.(*ast.StructType); ok && pkg == "core" && holdsHead(st) {
					fail(n.Pos(), "core.%s holds an engine.Head: a driver in core; core is the machine and serve drives it (ROADMAP, Serving architecture: one driver)", n.Name.Name)
				}
				if st, ok := n.Type.(*ast.StructType); ok && inBackend && !(pkg == "backend" && n.Name.Name == "Stage") {
					for _, fld := range st.Fields.List {
						if star, ok := fld.Type.(*ast.StarExpr); ok && selector(star.X, "kvpage", "Cache") {
							fail(fld.Pos(), "%s.%s holds a *kvpage.Cache: a second stage cache; %s", pkg, n.Name.Name, stageWhy)
						}
					}
				}
				if st, ok := n.Type.(*ast.StructType); ok && pkg == "serve" && n.Name.Name == "Scheduler" {
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							if degradationFields[name.Name] {
								fail(name.Pos(), "serve.Scheduler declares %s: a second degradation state; the breaker and brown-out are rungs of the one optimism level (ROADMAP, Overload control architecture: one optimism level)", name.Name)
							}
						}
					}
				}
			case *ast.CallExpr:
				switch {
				case selector(n.Fun, "Trace", "Record"):
					fail(n.Pos(), "Trace.Record is called: a second timeline; record into the trace.Ring the goroutine already has (ROADMAP, Observability architecture: one timeline, always on)")
				case selector(n.Fun, "", "Batched") || selector(n.Fun, "", "Ranged"):
					fail(n.Pos(), "%s is called: it %s", n.Fun.(*ast.SelectorExpr).Sel.Name, shapeWhy)
				}
			case *ast.TypeAssertExpr:
				if selector(n.Type, "comm", "Waiter") || pkg == "comm" && isIdent(n.Type, "Waiter") {
					fail(n.Pos(), "a type assertion to comm.Waiter: WaitRecv is part of comm.Endpoint, which every endpoint implements (ROADMAP, Fault tolerance architecture: one await)")
				}
			case *ast.SelectorExpr:
				if selector(n, "core", "Run") {
					fail(n.Pos(), "core.Run is referenced: a second driver; a single request is a one-session serve (ROADMAP, Serving architecture: one driver)")
				}
			}
			return true
		})
	}

	const machine = "ROADMAP, Serving architecture: each session's speculation state is a core.Chain, the one PipeInfer machine"
	if len(proposeCalls) != 1 || proposeCalls[0].pkg != "spec" || proposeCalls[0].fun != "Grow" {
		where := make([]string, len(proposeCalls))
		for i, c := range proposeCalls {
			where[i] = fmt.Sprintf("%s (%s.%s)", fset.Position(c.pos), c.pkg, c.fun)
		}
		t.Errorf("want one drafter, spec.Grow's Propose call, found %d Propose call sites outside Propose implementations: %v (%s; a chain is a width-1 tree)", len(proposeCalls), where, machine)
	}
	var routine string
	for i, rc := range rankCalls {
		where := make([]string, len(rankSites[i]))
		for j, c := range rankSites[i] {
			where[j] = fmt.Sprintf("%s (%s.%s)", fset.Position(c.pos), c.pkg, c.fun)
		}
		if len(where) != 1 {
			t.Errorf("want one call site of %s.%s under internal/, found %d: %v (%s)", rc.pkg, rc.name, len(where), where, rankWhy)
			continue
		}
		if fn := rankSites[i][0].pkg + "." + rankSites[i][0].fun; routine == "" {
			routine = fn
		} else if fn != routine {
			t.Errorf("%s.%s is called in %s, not in %s with the others: %s (%s)", rc.pkg, rc.name, fn, routine, where[0], rankWhy)
		}
	}
	for i, name := range placeCalls {
		if len(placeFuncs[i]) == 1 {
			continue
		}
		where := make([]string, 0, len(placeFuncs[i]))
		for fn, pos := range placeFuncs[i] {
			where = append(where, fmt.Sprintf("%s (%s)", fset.Position(pos), fn))
		}
		slices.Sort(where)
		t.Errorf("want %s called in one function under internal/backend, found %d: %v (%s)", name, len(where), where, stageWhy)
	}
	if pendingTypes != 1 {
		t.Errorf("want one pending-token type (core.Pending), found %d (%s)", pendingTypes, machine)
	}

	testOnlyExports(t)

	src, err := os.ReadFile(filepath.Join("..", "serve", "serve.go"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), "\n"); n > serveLines {
		t.Errorf("internal/serve/serve.go has %d lines, over the %d it may only shrink from (ROADMAP, Open item 4: the scheduler split)", n, serveLines)
	}
}

// oneFrame is why the wire rules hold.
const oneFrame = "each pipeline operation is one frame on comm.TagRun, ordered by the link's FIFO stream (ROADMAP, Performance architecture: one frame per pipeline operation)"

// wireRules holds every file, tests included, to one frame per pipeline
// operation: nothing imports the retired transaction layer, nothing names
// the transaction-start tag, and nothing sends on comm.TagActivation but
// comm's own tests, which use it as a second stream.
func wireRules(f file, fail func(token.Pos, string, ...any)) {
	for _, im := range f.ast.Imports {
		if strings.HasSuffix(strings.Trim(im.Path.Value, `"`), "/internal/transact") {
			fail(im.Pos(), "internal/transact is imported: a start message per operation; %s", oneFrame)
		}
	}
	inComm := f.ast.Name.Name == "comm"
	commTest := f.test && strings.HasPrefix(f.path, "comm/")
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "TagStart" {
				fail(n.Pos(), "TagStart: a transaction-start message; %s", oneFrame)
			}
		case *ast.CallExpr:
			if !selector(n.Fun, "", "Send") || commTest {
				break
			}
			for _, a := range n.Args {
				if selector(a, "comm", "TagActivation") || inComm && isIdent(a, "TagActivation") {
					fail(a.Pos(), "a Send on TagActivation: an activation travels in its run's frame; %s", oneFrame)
				}
			}
		}
		return true
	})
}

// isIdent reports whether e is the bare identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// receiver names a method's receiver type, pointer or not.
func receiver(fd *ast.FuncDecl) string {
	typ := fd.Recv.List[0].Type
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// holdsHead reports a struct with an engine.Head field, by value or
// pointer: the pipeline a driver owns.
func holdsHead(st *ast.StructType) bool {
	for _, fld := range st.Fields.List {
		typ := fld.Type
		if s, ok := typ.(*ast.StarExpr); ok {
			typ = s.X
		}
		if selector(typ, "engine", "Head") {
			return true
		}
	}
	return false
}

// testOnlyExports fails on every exported function or method declared
// under internal/ that no program file of the module (cmd/, examples/,
// bench/, the root package and internal/ itself, tests excluded) uses,
// save the references and seams tests keep on purpose (testSeams), and on
// every testSeams entry that no longer names such a declaration. Uses are
// resolved by go/types over the module's program files, so a name that
// some other declaration shares hides nothing. A method that satisfies an
// interface of the program, or of a package it imports, counts as used:
// it is called through the interface.
func testOnlyExports(t *testing.T) {
	t.Helper()
	prog := checkProgram(t)
	const why = "delete it, or give its tests the form production calls (ROADMAP, Open item 19: delete what nothing needs)"
	seamHit := map[string]bool{}
	for _, fn := range prog.decls {
		if prog.used[fn] || prog.satisfies(fn) {
			continue
		}
		full := fn.Pkg().Name() + "." + fn.Name()
		typ := ""
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ = fn.Pkg().Name() + "." + namedOf(recv.Type()).Obj().Name()
			full = typ + "." + fn.Name()
		}
		switch {
		case testSeams[full] != "":
			seamHit[full] = true
		case typ != "" && testSeams[typ] != "":
			seamHit[typ] = true
		default:
			t.Errorf("%s: %s is exported and only tests call it: %s", prog.fset.Position(fn.Pos()), full, why)
		}
	}
	for name := range testSeams {
		if !seamHit[name] {
			t.Errorf("testSeams lists %s, which no longer declares an exported function only tests call: drop the entry", name)
		}
	}
}

// program is the module's program files, type-checked: the exported
// functions and methods declared under internal/, every function or
// method a program file uses, and every interface the program or a
// package it imports declares or spells out.
type program struct {
	fset   *token.FileSet
	decls  []*types.Func
	used   map[*types.Func]bool
	ifaces []*types.Interface
}

// satisfies reports whether method fn's receiver type, or a pointer to it,
// implements an interface of the program that has a method of fn's name.
func (p *program) satisfies(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	for _, it := range p.ifaces {
		for m := range it.Methods() {
			if m.Name() == fn.Name() && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// namedOf strips a pointer from a receiver type.
func namedOf(typ types.Type) *types.Named {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.(*types.Named)
}

// checkProgram parses every program file of the module that the host's
// build constraints select, and type-checks it package by package. The
// standard library comes from its compiled export data, located with one
// go list call.
func checkProgram(t *testing.T) *program {
	t.Helper()
	const module = "github.com/pipeinfer/pipeinfer"
	root := filepath.Join("..", "..")
	p := &program{fset: token.NewFileSet(), used: map[*types.Func]bool{}}
	dirs := map[string][]*ast.File{}
	std := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || n[0] == '.') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(p.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		dirs[filepath.ToSlash(rel)] = append(dirs[filepath.ToSlash(rel)], f)
		for _, im := range f.Imports {
			if path := strings.Trim(im.Path.Value, `"`); !strings.HasPrefix(path, module) {
				std[path] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	out, err := exec.Command("go", append(args, slices.Sorted(maps.Keys(std))...)...).Output()
	if err != nil {
		t.Fatalf("go list of the standard library's export data: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	stdImp := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) })

	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		rel, ok := strings.CutPrefix(path, module)
		if !ok {
			return stdImp.Import(path)
		}
		rel = strings.TrimPrefix(rel, "/")
		if rel == "" {
			rel = "."
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, p.fset, dirs[rel], info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				p.used[fn.Origin()] = true
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				p.ifaces = append(p.ifaces, it)
			}
		}
		for _, scope := range append([]*types.Package{pkg}, pkg.Imports()...) {
			for _, name := range scope.Scope().Names() {
				if tn, ok := scope.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
					p.ifaces = append(p.ifaces, tn.Type().Underlying().(*types.Interface))
				}
			}
		}
		for _, f := range dirs[rel] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && strings.HasPrefix(rel, "internal/") {
					p.decls = append(p.decls, info.Defs[fd.Name].(*types.Func))
				}
			}
		}
		return pkg, nil
	}
	for _, rel := range slices.Sorted(maps.Keys(dirs)) {
		path := module
		if rel != "." {
			path += "/" + rel
		}
		if _, err := imp(path); err != nil {
			t.Fatal(err)
		}
	}
	p.ifaces = append(p.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return p
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// testSeams are the exported names under internal/ that only tests call,
// each kept as a reference a test compares against or a seam a test
// drives, with the tests that use it. A type's name covers its methods.
var testSeams = map[string]string{
	"kvcache.Cache":                 "the flat reference cell store: kvpage's TestDifferentialRandomOps and FuzzDifferentialOps hold the paged store to it",
	"kvcache.New":                   "builds the flat reference cell store: kvpage's TestDifferentialRandomOps and FuzzDifferentialOps, and kvcache's own tests",
	"kvcache.ApplyAll":              "applies ops to the flat reference cell store: TestOpApplyMatchesDirectCalls",
	"kvcache.Namespace.ValidOp":     "the namespace contract: TestNamespaceValidOp, and simbk's TestSimServeOpsStayInNamespace on every op a serve sends",
	"kvpage.Cache.EntryLen":         "TestDifferentialRandomOps compares each shared entry's length with the flat reference's",
	"kvpage.Cache.Cell":             "reads a cell's metadata: TestShardMappingAndRelease, TestVisibleCellsPositionOrder, TestDifferentialRandomOps, model's scratch traffic tests",
	"kvpage.Cache.Diff":             "the replica property: backend's TestStageReplicatesShadow holds a stage's cache equal to the head's shadow",
	"tensor.Mat.At":                 "reads a matrix element: the tensor, model and realbk tests",
	"tensor.Mat.Set":                "writes a matrix element: the tensor, model and realbk tests",
	"simnet.Kernel.Now":             "the clock in kernel context and after Run returns: TestAdvanceOrdersEvents, TestScheduleClosure, TestScheduleInPastClampsToNow",
	"tensor.Attention":              "the per-row attention reference: TestAttentionGroupBitsEqualRows, TestAttentionMatchesReference",
	"tensor.RoPE":                   "the direct rotation reference: TestRoPECachedMatchesDirect",
	"tensor.Dot":                    "the dot-product reference: TestDotUnrolledMatchesNaive",
	"quant.DotQ8":                   "the Q8 row kernel reference: TestDotQPublicAPI",
	"quant.DotQ4":                   "the Q4 row kernel reference: TestDotQPublicAPI",
	"quant.Quantize":                "builds the frozen reference models and the dequantized twin: TestRangeBuildBitsEqualWhole, TestQuantizedGreedyMatchesDequantized",
	"quant.Mat.Dequantize":          "the dequantized twin and the round-trip tests: TestQuantizedGreedyMatchesDequantized, TestF32Roundtrip",
	"spec.ValidateTree":             "the tree invariants the property tests check: TestLinearizeMutualExclusionProperty",
	"faultcomm.Plan.RuleHits":       "the proof a fault rule fired: TestServeFaultRecoveryParity, TestSimServeFaultRecoveryParity",
	"faultcomm.Plan.LinkStats":      "per-link fault counts: TestNthDropAndFIFO, TestRuleHits",
	"tcpcomm.Endpoint.FramesLost":   "the reconnect replay's loss count: TestOutageKeepsOrderAndDedups",
	"tcpcomm.Endpoint.Err":          "the refusal a rank records: TestReacceptRefusesOtherWireVersion",
	"serve.NewLive":                 "live intake, driven step by step: TestLiveIntake, TestBrownoutLadder",
	"serve.Scheduler.TotalAccepted": "the serving alloc gates step until it advances: TestServeStepAllocs",
}
