package snacc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
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
		"fault.Rule.Seen", "fault.Rule.Fired", "fault.Injector.InjectedByKind", "fault.LinkRule.Seen", "fault.LinkRule.Fired",
		"memmodel.DRAM.Turnarounds", "memmodel.DRAM.RowMisses", "memmodel.DRAM.Accesses",
		"nvme.Device.CQEsDropped", "nvme.Device.CQEsDelayed", "nvme.Device.CQEsLost", "nvme.Device.ControllerHangs",
		"nvme.Device.CommandsExecuted", "nvme.Device.DeallocatedBytes",
		"nvme.NAND.EpochSlow", "nvme.NAND.DieReads", "nvme.NAND.StripedReads", "nvme.NAND.Programs",
		"obs.Hist.Sum", "obs.Tracer.OpenedByTenant", "obs.Tracer.ClosedByTenant", "obs.Tracer.DoubleCloses",
		"pcie.Port.PayloadTx", "pcie.SparseMem.Pages", "pcie.SparseMem.PageMoves",
		"serve.ConnTable.Occupancy",
		"sim.Chan.Cap", "sim.Pipe.BusyUntil", "sim.Pipe.BytesMoved", "sim.Pipe.Transfers",
		"sim.Resource.InUse", "sim.Resource.Available", "sim.Server.BusyUntil",
		"streamer.Streamer.BufferHighWater",
	}},
	{"state or geometry a test reads back to check what a model negotiated or recorded", []string{
		"memmodel.ChunkedBuffer.ChunkSize", "memmodel.ChunkedBuffer.Chunks",
		"nvme.Device.Mode", "nvme.Device.FatalReason", "nvme.Device.ErrorLog",
		"pcie.Port.Identity", "pcie.IOMMU.Enabled", "spdk.Driver.MDTSBytes",
	}},
	{"handles a test uses to reach one part of an assembled model", []string{
		"pcie.Fabric.HostPort", "streamer.Striped.Member",
	}},
	{"probes that put a model in a state no rig reaches on its own (a malformed CQE, the IOMMU-off control experiment, a revoked grant, a stream read outside a process)", []string{
		"streamer.Streamer.InjectCQE", "pcie.IOMMU.SetEnabled", "pcie.IOMMU.Revoke", "axis.Stream.TryRecv",
	}},
}

// TestNoTestOnlyExports parses every non-test Go file in the module and
// fails when an exported function or method declared under internal/ has
// no reference outside _test.go files and is not a listed test oracle. A
// reference is matched by name: pkg.Func from another package, a bare Func
// in its own package, or .Method on any value (an interface method of the
// same name counts too). A listed oracle that gains a reference, or no
// longer exists, also fails the test so the list cannot go stale.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key string // pkg.Func or pkg.Recv.Method
		pkg string // import path
		fn  string
		// method is true for a declaration with a receiver.
		method bool
		pos    token.Position
	}
	var decls []decl
	funcRefs := map[string]bool{}   // importpath.Func
	methodRefs := map[string]bool{} // Method

	fset := token.NewFileSet()
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgPath := "snacc"
		if dir != "." {
			pkgPath += "/" + dir
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, pkgPath, fd.Name.Name, fd.Recv != nil, fset.Position(fd.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						funcRefs[ip+"."+n.Sel.Name] = true
						return false
					}
				}
				methodRefs[n.Sel.Name] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methodRefs[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declNames[n] {
					funcRefs[pkgPath+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	oracles := map[string]bool{}
	for _, g := range testOracles {
		for _, name := range g.names {
			oracles[name] = true
		}
	}
	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		used := funcRefs[d.pkg+"."+d.fn]
		if d.method {
			used = methodRefs[d.fn]
		}
		oracle := oracles[d.key]
		switch {
		case !used && !oracle:
			unused = append(unused, d.pos.String()+": "+d.key)
		case used && oracle:
			t.Errorf("%s: %s has a non-test reference; drop it from testOracles", d.pos, d.key)
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

// recvName returns the type name of a method receiver, without pointer or
// type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
