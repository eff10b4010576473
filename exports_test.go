package snacc

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOracles lists the exported functions and methods under internal/
// that only tests call, grouped by why they stay. Each lets a test check
// or steer a model; none is a model feature that no rig exercises. Every
// other export must have a non-test reference. Names are "pkg.Func" or
// "pkg.Recv.Method".
var testOracles = []struct {
	reason string
	names  []string
}{
	{"counters a test reads to check a model; a metrics registry would subsume them", []string{
		"axis.Stream.Pending", "axis.Stream.BytesMoved", "axis.Stream.Packets",
		"ethernet.MAC.TxQueueLen", "ethernet.MAC.FramesSent", "ethernet.MAC.BytesSent", "ethernet.MAC.BytesReceived",
		"ethernet.Switch.FramesDropped",
		"fault.Rule.Seen", "fault.Rule.Fired", "fault.Injector.InjectedByKind", "fault.LinkRule.Seen", "fault.LinkRule.Fired",
		"memmodel.DRAM.Turnarounds", "memmodel.DRAM.RowMisses", "memmodel.DRAM.Accesses",
		"nvme.Device.CQEsDropped", "nvme.Device.CQEsDelayed", "nvme.Device.CQEsLost", "nvme.Device.ControllerHangs",
		"nvme.Device.CommandsExecuted",
		"nvme.NAND.EpochSlow", "nvme.NAND.DieReads", "nvme.NAND.StripedReads", "nvme.NAND.Programs",
		"obs.Hist.Sum", "obs.Tracer.OpenedByTenant", "obs.Tracer.ClosedByTenant", "obs.Tracer.DoubleCloses", "obs.Tracer.Events",
		"pcie.Port.PayloadTx", "pcie.SparseMem.Pages", "pcie.SparseMem.PageMoves", "pcie.MemCompleter.Reads", "pcie.MemCompleter.Writes",
		"serve.ConnTable.Occupancy",
		"sim.Chan.Cap", "sim.Pipe.BusyUntil", "sim.Pipe.BytesMoved", "sim.Pipe.Transfers",
		"sim.Resource.InUse", "sim.Resource.Available", "sim.Server.BusyUntil", "sim.Server.Utilization",
		"streamer.Streamer.BufferHighWater",
	}},
	{"state or geometry a test reads back to check what a model negotiated or recorded", []string{
		"memmodel.ChunkedBuffer.ChunkSize", "memmodel.ChunkedBuffer.Chunks", "memmodel.HBM.Channels",
		"nvme.Device.Mode", "nvme.Device.FatalReason",
		"pcie.Port.Identity", "pcie.Port.Link", "pcie.IOMMU.Enabled", "pcie.IOMMU.Check", "sim.Chan.Peek",
		"spdk.Driver.MDTSBytes", "spdk.Driver.QueuePairs", "tapasco.Driver.LBASize", "tapasco.Driver.CapacityBlocks",
		"tapasco.Platform.Config",
	}},
	{"handles a test uses to reach one part of an assembled model", []string{
		"nvme.Device.NAND", "nvme.NAND.Store", "pcie.Fabric.HostPort", "streamer.Streamer.Resources", "streamer.Striped.Member",
	}},
	{"probes that put a model in a state no rig reaches on its own (a malformed CQE, the IOMMU-off control experiment, a revoked grant, a stream read outside a process)", []string{
		"streamer.Streamer.InjectCQE", "pcie.IOMMU.SetEnabled", "pcie.IOMMU.Revoke", "axis.Stream.TryRecv",
		"nvme.Device.Crash",
	}},
}

// TestNoTestOnlyExports type-checks every non-test Go file in the module
// (cmd/snaccperf included) and fails when an exported function or method
// declared under internal/ has no reference outside _test.go files and is
// not a listed test oracle. A reference is a use of that very object: a
// call, a method value or a selector resolved by the type checker, so a
// method is not kept alive by a same-named method on another type. A
// method also counts as referenced when its type implements an interface
// with that method: one declared in the module, error or fmt.Stringer. A
// listed oracle that gains a reference, or no longer exists, also fails the
// test so the list cannot go stale.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := "snacc"
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			pkgPath += "/" + dir
		}
		files[pkgPath] = append(files[pkgPath], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	m := &moduleImporter{fset: fset, std: importer.Default(), files: files, info: info, pkgs: map[string]*types.Package{}}
	for path := range files {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	for _, sel := range info.Selections {
		if fn, ok := sel.Obj().(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	// A method that satisfies an interface is reachable through it.
	fmtPkg, err := m.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
	}
	var named []*types.Named
	for _, obj := range info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			ifaces = append(ifaces, it)
		} else if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
			named = append(named, n)
		}
	}
	for _, n := range named {
		for _, it := range ifaces {
			if !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), false, n.Obj().Pkg(), it.Method(i).Name())
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}

	oracles := map[string]bool{}
	for _, g := range testOracles {
		for _, name := range g.names {
			oracles[name] = true
		}
	}
	var unused []string
	seen := map[string]bool{}
	for _, obj := range info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() || !strings.HasPrefix(fn.Pkg().Path(), "snacc/internal/") {
			continue
		}
		key := fn.Pkg().Name() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
				continue // an interface method, not a declaration
			}
			key = fn.Pkg().Name() + "." + recvName(recv.Type()) + "." + fn.Name()
		}
		seen[key] = true
		switch oracle := oracles[key]; {
		case !used[fn] && !oracle:
			unused = append(unused, fset.Position(fn.Pos()).String()+": "+key)
		case used[fn] && oracle:
			t.Errorf("%s: %s has a non-test reference; drop it from testOracles", fset.Position(fn.Pos()), key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests reach it: delete it, or list it in testOracles if a test reads it to check a model", u)
	}
	for name := range oracles {
		if !seen[name] {
			t.Errorf("testOracles lists %s, which is no longer declared", name)
		}
	}
}

// moduleImporter type-checks the module's packages from their parsed
// files on first import, recording into one shared Info, and imports
// everything else (the standard library) through std.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File
	info  *types.Info
	pkgs  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// recvName returns the type name of a method receiver, without pointer or
// type arguments.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}
