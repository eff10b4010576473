package spdk

import (
	"errors"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/sim"
)

// faultRig attaches a driver to a device with an installed fault injector.
func faultRig(t *testing.T, inject func(nvme.Command) uint16) (*sim.Kernel, chan *Driver) {
	t.Helper()
	k, _, dev, out := attach(t, false, 0)
	dev.SetFaultInjector(inject)
	return k, out
}

func TestIOFaultSurfacesAsError(t *testing.T) {
	k, out := faultRig(t, func(cmd nvme.Command) uint16 {
		if cmd.Opcode == nvme.OpRead {
			return nvme.StatusInternalError
		}
		return nvme.StatusSuccess
	})
	k.Spawn("io", func(p *sim.Proc) {
		for len(out) == 0 {
			p.Sleep(sim.Millisecond)
		}
		d := <-out
		buf := d.AllocBuffer(4096)
		if err := d.Write(p, 0, 8, buf, nil); err != nil {
			t.Errorf("write should survive a read-only injector: %v", err)
		}
		err := d.Read(p, 0, 8, buf, nil)
		if err == nil {
			t.Fatal("injected read fault never surfaced")
		}
		var cmdErr *nvme.StatusError
		if !errors.As(err, &cmdErr) {
			t.Fatalf("error %v is not a *nvme.StatusError", err)
		}
		if cmdErr.Status != nvme.StatusInternalError {
			t.Fatalf("status %#x, want internal error", cmdErr.Status)
		}
	})
	k.Run(0)
}

func TestIntermittentFaultsDoNotWedgeTheQueue(t *testing.T) {
	// Every third command fails; the ring must keep flowing and deliver
	// each completion (success or failure) exactly once.
	n := 0
	k, out := faultRig(t, func(cmd nvme.Command) uint16 {
		if cmd.Opcode != nvme.OpWrite {
			return nvme.StatusSuccess
		}
		n++
		if n%3 == 0 {
			return nvme.StatusInternalError
		}
		return nvme.StatusSuccess
	})
	k.Spawn("io", func(p *sim.Proc) {
		for len(out) == 0 {
			p.Sleep(sim.Millisecond)
		}
		d := <-out
		buf := d.AllocBuffer(4096)
		const ops = 96
		fails, successes := 0, 0
		got := sim.NewChan[error](p.Kernel(), ops)
		for i := 0; i < ops; i++ {
			d.WriteAsync(uint64(i*8), 8, buf, nil, func(err error) { got.TryPut(err) })
		}
		for i := 0; i < ops; i++ {
			if err := got.Get(p); err != nil {
				fails++
			} else {
				successes++
			}
		}
		if fails != ops/3 || successes != ops-ops/3 {
			t.Fatalf("%d failures / %d successes, want %d / %d", fails, successes, ops/3, ops-ops/3)
		}
		// The queue still works after the fault storm.
		if err := d.Read(p, 0, 8, buf, nil); err != nil {
			t.Fatalf("post-storm read: %v", err)
		}
	})
	k.Run(0)
}

func TestFaultsCountInErrorLog(t *testing.T) {
	k, _, dev, out := attach(t, false, 0)
	dev.SetFaultInjector(func(cmd nvme.Command) uint16 {
		if cmd.Opcode == nvme.OpWrite {
			return nvme.StatusInternalError
		}
		return nvme.StatusSuccess
	})
	k.Spawn("io", func(p *sim.Proc) {
		for len(out) == 0 {
			p.Sleep(sim.Millisecond)
		}
		d := <-out
		buf := d.AllocBuffer(4096)
		for i := 0; i < 3; i++ {
			if err := d.Write(p, 0, 8, buf, nil); err == nil {
				t.Fatal("injected fault not surfaced")
			}
		}
		nonEmpty := 0
		for _, e := range dev.ErrorLog() {
			if e.Status != 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 3 {
			t.Fatalf("error log holds %d entries, want >= 3", nonEmpty)
		}
	})
	k.Run(0)
}
