//go:build go1.23

// The build constraint raises this file's language version to go1.23, the
// first with iter.Pull, while the module stays at go 1.22: the benchmark
// module under cmd/snaccperf pins go 1.22 and replaces this one, so raising
// the module's go line would break its build. Every supported toolchain
// satisfies the constraint; the kernel has no channel-based fallback.

package sim

import "iter"

// start turns the process body into a coroutine. Creating it at the first
// dispatch rather than at Spawn means a process that never runs holds no
// coroutine, so Close can simply drop it.
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(iter.Seq[struct{}](p.body))
}
