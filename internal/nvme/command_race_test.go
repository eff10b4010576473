//go:build race

package nvme

import "testing"

// TestCommandReleaseChecks pins the race-build checks on recycled commands
// and SQE fetches: a second release and a stage firing after release both
// panic instead of corrupting a struct that reused the slot, and release
// poisons the owned PRP-list and SQE buffers.
func TestCommandReleaseChecks(t *testing.T) {
	tb := newTestbench(t, nil)
	defer tb.k.Close()
	c := tb.dev.getCommand(nil, Command{})
	c.listBuf = ownedBuf(c.listBuf, 16)
	list := c.listBuf
	c.release()
	f := tb.dev.getFetch()
	f.buf = ownedBuf(f.buf, SQESize)
	sqes := f.buf
	f.release()
	for name, b := range map[string][]byte{"PRP list": list, "SQE": sqes} {
		for i, v := range b {
			if v != poisonByte {
				t.Fatalf("released %s buffer byte %d = %#x, want poison %#x", name, i, v, poisonByte)
			}
		}
	}
	for what, fn := range map[string]func(){
		"a second fetch release": f.release,
		"a fetch completion":     f.doneFn,
		"a second release":       c.release,
		"an execution grant":     c.Grant,
		"the execute stage":      c.stage.execute,
		"the PRP list stage":     c.stage.prpList,
		"the NAND read":          c.stage.nandRead,
		"the buffered stage":     c.stage.buffered,
		"an extent landing":      c.stage.extentDone,
		"the CQE delivery":       c.stage.deliver,
		"the CQE post":           c.stage.post,
		"the CQE sent":           c.stage.cqeSent,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released command did not panic", what)
				}
			}()
			fn()
		}()
	}
}
