//go:build race

package nvme

import "testing"

// TestCommandReleaseChecks pins the race-build checks on recycled commands:
// a second release and a stage firing after release both panic instead of
// corrupting a command that reused the struct.
func TestCommandReleaseChecks(t *testing.T) {
	tb := newTestbench(t, nil)
	defer tb.k.Close()
	c := tb.dev.getCommand(nil, Command{})
	c.release()
	for what, fn := range map[string]func(){
		"a second release":   c.release,
		"an execution grant": c.Grant,
		"the execute stage":  c.stage.execute,
		"the PRP list stage": c.stage.prpList,
		"the NAND read":      c.stage.nandRead,
		"the buffered stage": c.stage.buffered,
		"an extent landing":  c.stage.extentDone,
		"the CQE delivery":   c.stage.deliver,
		"the CQE post":       c.stage.post,
		"the CQE sent":       c.stage.cqeSent,
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
