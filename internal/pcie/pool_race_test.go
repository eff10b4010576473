//go:build race

package pcie

import "testing"

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestPooledRequestReleaseChecks pins the race-build checks on recycled
// request structs: a second release and a stage firing after release both
// panic instead of corrupting a request that reused the struct.
func TestPooledRequestReleaseChecks(t *testing.T) {
	k, _, _, dev, _, _ := testFabric(t, DefaultConfig())
	defer k.Close()
	w := dev.getWriteReq()
	dev.putWriteReq(w)
	mustPanic(t, "releasing a write request twice", func() { dev.putWriteReq(w) })
	mustPanic(t, "a write stage on a released request", w.stage.deliver)
	mustPanic(t, "a granule step on a released request", w.stage.step)

	r := dev.getReadReq()
	dev.putReadReq(r)
	mustPanic(t, "releasing a read request twice", func() { dev.putReadReq(r) })
	mustPanic(t, "a credit grant to a released read", r.Grant)

	c := dev.getReadChunk()
	dev.putReadChunk(c)
	mustPanic(t, "releasing a read chunk twice", func() { dev.putReadChunk(c) })
	for _, stage := range []func(){c.stage.arrive, c.stage.serve, c.stage.complete, c.stage.ret, c.stage.land} {
		mustPanic(t, "a chunk stage on a released chunk", stage)
	}
}
