package pcie

import "snacc/internal/sim"

// The port's transactions in flight are structs recycled through per-port
// free lists instead of closure chains: a struct binds its stage methods to
// func values once, when it is first built, so scheduling a stage as an
// event allocates nothing. The initiating port owns each struct from get to
// put. A struct goes back to its free list the moment its last stage has
// read what it needs, before that stage runs the caller's callback, and put
// zeroes it, so nothing it carried (payload views, callbacks) stays
// reachable. Race builds check both halves of that contract: a stage firing
// on a released struct, and a second release, panic.

// writeReq is one posted write: a single burst on its way to delivery, or a
// burst longer than writeGranule whose granules it chains.
type writeReq struct {
	pt   *Port // initiator, which owns the struct
	dst  *Port
	addr uint64
	n    int64
	off  int64 // next granule of a chained burst
	data Payload
	fn   func()

	released bool
	stage    struct{ deliver, step func() } // bound once
}

// readReq is one Read: MaxReadRequest-sized chunks, each holding a credit
// from gate while outstanding. It is the gate's waiter for its next chunk.
type readReq struct {
	pt, dst *Port
	addr    uint64
	n       int64
	buf     Payload
	fn      func()
	gate    *sim.Gate

	remaining  int64 // bytes not yet requested
	off, chunk int64 // the chunk waiting for a credit
	pending    int   // chunks in flight
	finished   bool  // every chunk requested

	released bool
}

// readChunk is one credit's worth of a readReq crossing the fabric.
type readChunk struct {
	pt     *Port // initiator, which owns the struct
	r      *readReq
	addr   uint64
	off, n int64
	wire   int64    // completion bytes on the wire
	pad    sim.Time // the port's read padding when the chunk was issued

	released bool
	stage    struct{ arrive, serve, complete, ret, land func() } // bound once
}

func (pt *Port) getWriteReq() *writeReq {
	if n := len(pt.writeFree); n > 0 {
		w := pt.writeFree[n-1]
		pt.writeFree = pt.writeFree[:n-1]
		w.released = false
		return w
	}
	w := &writeReq{pt: pt}
	w.stage.deliver, w.stage.step = w.deliver, w.step
	return w
}

func (pt *Port) putWriteReq(w *writeReq) {
	if checkReleased && w.released {
		panic("pcie: write request released twice")
	}
	*w = writeReq{pt: pt, released: true, stage: w.stage}
	pt.writeFree = append(pt.writeFree, w)
}

func (w *writeReq) check() {
	if checkReleased && w.released {
		panic("pcie: write stage fired on a released request")
	}
}

func (pt *Port) getReadReq() *readReq {
	if n := len(pt.readFree); n > 0 {
		r := pt.readFree[n-1]
		pt.readFree = pt.readFree[:n-1]
		r.released = false
		return r
	}
	return &readReq{pt: pt}
}

func (pt *Port) putReadReq(r *readReq) {
	if checkReleased && r.released {
		panic("pcie: read request released twice")
	}
	*r = readReq{pt: pt, released: true}
	pt.readFree = append(pt.readFree, r)
}

func (r *readReq) check() {
	if checkReleased && r.released {
		panic("pcie: read stage fired on a released request")
	}
}

func (pt *Port) getReadChunk() *readChunk {
	if n := len(pt.chunkFree); n > 0 {
		c := pt.chunkFree[n-1]
		pt.chunkFree = pt.chunkFree[:n-1]
		c.released = false
		return c
	}
	c := &readChunk{pt: pt}
	c.stage.arrive, c.stage.serve, c.stage.complete, c.stage.ret, c.stage.land = c.arrive, c.serve, c.complete, c.ret, c.land
	return c
}

func (pt *Port) putReadChunk(c *readChunk) {
	if checkReleased && c.released {
		panic("pcie: read chunk released twice")
	}
	*c = readChunk{pt: pt, released: true, stage: c.stage}
	pt.chunkFree = append(pt.chunkFree, c)
}

func (c *readChunk) check() {
	if checkReleased && c.released {
		panic("pcie: read chunk stage fired on a released chunk")
	}
}
