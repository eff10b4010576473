// Package bufpool recycles the control-path byte slices the simulation's
// hot paths would otherwise allocate per message: SQE fetch batches, PRP
// lists and CQEs in the controller model, and the 4-byte doorbell writes
// and status polls of the Streamer. Bulk payload does not come from here:
// it travels as copy-on-write pages (pcie.Payload), pooled in internal/pcie
// the same way.
//
// Buffers are pooled in power-of-two size classes backed by sync.Pool, so
// the pools are safe to share between the parallel experiment engine's
// workers (each worker simulates a private kernel, but all kernels draw
// from the same process-wide pools). Determinism is unaffected: Get returns
// buffers with undefined contents, and every call site fully overwrites the
// bytes it later reads.
//
// A buffer belongs to whoever took it from Get until it is handed on or
// given back with Put; after Put nobody may touch it. Race builds fill
// every buffer given back with a poison byte, so a use after Put shows up
// as corrupt data instead of passing silently.
package bufpool

import (
	"math/bits"
	"sync"
)

// maxClass bounds pooled buffers at 1<<maxClass bytes (16 MiB) — larger
// requests fall through to plain allocation.
const maxClass = 24

var classes [maxClass + 1]sync.Pool

// headers recycles the *[]byte boxes that carry buffers through the class
// pools: Get empties the box it took a buffer out of and parks it here, and
// Put refills one, so a steady-state Put allocates nothing.
var headers sync.Pool

// class returns the smallest power-of-two exponent c with 1<<c >= n.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a slice of length n with undefined contents. The caller must
// overwrite every byte it will read.
func Get(n int) []byte {
	if n < 0 {
		panic("bufpool: negative length")
	}
	c := class(n)
	if c > maxClass {
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		h := v.(*[]byte)
		b := *h
		*h = nil
		headers.Put(h)
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// GetZeroed returns a zero-filled slice of length n.
func GetZeroed(n int) []byte {
	b := Get(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// Put recycles a buffer obtained from Get. Slices whose capacity is not an
// exact pool class (foreign allocations) are dropped silently, so callers
// may hand back any buffer that merely passed through them. Put(nil) is a
// no-op. The caller must not retain references to b.
func Put(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return // foreign or empty buffer
	}
	cl := class(c)
	if cl > maxClass {
		return
	}
	b = b[:c]
	if poisonOnPut {
		for i := range b {
			b[i] = poisonByte
		}
	}
	h, _ := headers.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b
	classes[cl].Put(h)
}

// poisonByte is what race builds fill a buffer with when it is given back.
const poisonByte = 0xA5
