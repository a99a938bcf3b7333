package serve_test

// The tree's structural guards: one test that parses every Go file under
// internal/ and checks, on declarations and call sites rather than text,
// that what a subtraction removed stays removed. Test files are held to
// the wire rules only (wireRules); every other rule reads the program. A later "one
// X" change adds a rule here. Every failure names the invariant and the
// ROADMAP section that records it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// serveLines is the scheduler's line ratchet: internal/serve/serve.go may
// shrink, and a change that shrinks it lowers this number; none raises it.
const serveLines = 2054

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
	pendingTypes := 0
	for _, f := range files {
		wireRules(f, fail)
		if f.test {
			continue
		}
		pkg := f.ast.Name.Name
		for _, decl := range f.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case fd.Recv == nil && pkg == "core" && fd.Name.Name == "Run":
				fail(fd.Pos(), "core.Run is declared: a second driver; a single request is a one-session serve (ROADMAP, Serving architecture: one driver)")
			case fd.Recv != nil && shapeMethods[fd.Name.Name] && receiver(fd) == "RunMsg":
				fail(fd.Pos(), "RunMsg.%s is declared: it %s", fd.Name.Name, shapeWhy)
			}
			if fd.Body == nil || fd.Name.Name == "Propose" {
				continue // a Propose implementation delegates
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && selector(c.Fun, "", "Propose") {
					proposeCalls = append(proposeCalls, call{c.Pos(), pkg, fd.Name.Name})
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
	if pendingTypes != 1 {
		t.Errorf("want one pending-token type (core.Pending), found %d (%s)", pendingTypes, machine)
	}

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
