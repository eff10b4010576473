package ethernet

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"

	"snacc/internal/sim"
)

// linkTimelineDigest pins the exact link timeline of two flow-controlled
// topologies. The digest also pins today's out-of-order arrivals (a small
// frame sent after an MTU-sized one arrives first, because each frame's
// store delay is min(bytes, MTU)); making links deliver in order changes
// it, and that change regenerates the digest deliberately.
const linkTimelineDigest = "8aee83b26203a77d"

// TestLinkTimelinePinned hashes every delivered frame's receiver, tag and
// arrival time, plus every MAC's and switch's counters, over two
// topologies whose slow consumers make 802.3x PAUSE fire: a MAC pair, and
// a 3-port switch where two senders converge on one receiver. A change to
// the transmitters that means to keep the model must keep the digest.
func TestLinkTimelinePinned(t *testing.T) {
	h := fnv.New64a()
	pairPaused, pairHonored := linkTimelinePair(h)
	swPaused, swHonored := linkTimelineSwitch(h)
	if pairPaused == 0 || pairHonored == 0 {
		t.Errorf("MAC pair: %d pauses sent, %d honored; the slow consumer must pause the sender", pairPaused, pairHonored)
	}
	if swPaused == 0 || swHonored == 0 {
		t.Errorf("switch: %d pauses sent, %d honored by the senders; the switch must propagate the pause", swPaused, swHonored)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != linkTimelineDigest {
		t.Fatalf("link timeline digest = %s, want %s", got, linkTimelineDigest)
	}
}

// timelineFrameBytes draws a frame size from 64 B up to aggregates of
// three MTUs.
func timelineFrameBytes(r *rand.Rand, mtu int64) int64 {
	switch r.Intn(4) {
	case 0:
		return 64 + r.Int63n(1500-64)
	case 1:
		return 1500 + r.Int63n(mtu-1500)
	case 2:
		return mtu
	default:
		return mtu + 1 + r.Int63n(2*mtu)
	}
}

// timelineSend queues n seeded-random frames tagged base+i toward dst.
func timelineSend(k *sim.Kernel, m *MAC, seed int64, n, base, dst int) {
	r := rand.New(rand.NewSource(seed))
	k.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m.Send(p, Frame{Bytes: timelineFrameBytes(r, DefaultConfig().MTU), Meta: base + i, DstPort: dst})
		}
	})
}

// timelineRecv consumes n frames at m, writing each one's receiver, tag
// and arrival time to w. With slow set it alternates phases of 150 frames
// that stall 3–5 µs per frame with phases that drain at once, so the FIFO
// crosses both watermarks repeatedly.
func timelineRecv(k *sim.Kernel, name string, m *MAC, w io.Writer, seed int64, n int, slow bool) {
	r := rand.New(rand.NewSource(seed))
	k.Spawn("sink", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			f := m.Recv(p)
			fmt.Fprintf(w, "%s %v %d\n", name, f.Meta, p.Now())
			if slow && (i/150)%2 == 0 {
				p.Sleep(3*sim.Microsecond + sim.Time(r.Int63n(int64(2*sim.Microsecond))))
			}
		}
	})
}

func timelineStats(w io.Writer, macs map[string]*MAC) {
	for _, name := range []string{"a", "b", "s0", "s1", "r"} {
		if m := macs[name]; m != nil {
			fmt.Fprintf(w, "%s sent=%d bytes=%d pauses=%d honored=%d dropped=%d\n",
				name, m.FramesSent(), m.BytesSent(), m.PausesSent(), m.PausesHonored(), m.FramesDropped())
		}
	}
}

// linkTimelinePair runs a MAC pair: a sends 1200 frames to a slow b while
// b sends 300 frames back to a fast a.
func linkTimelinePair(w io.Writer) (paused, honored int64) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	a, b := NewMAC(k, "a", cfg), NewMAC(k, "b", cfg)
	Connect(a, b)
	timelineSend(k, a, 1, 1200, 0, 0)
	timelineSend(k, b, 2, 300, 10000, 0)
	timelineRecv(k, "b", b, w, 3, 1200, true)
	timelineRecv(k, "a", a, w, 4, 300, false)
	k.Run(100 * sim.Millisecond)
	timelineStats(w, map[string]*MAC{"a": a, "b": b})
	return b.PausesSent(), a.PausesHonored()
}

// linkTimelineSwitch runs a 3-port switch with a 256 KiB egress buffer:
// s0 and s1 each send 600 frames to a slow r on port 2, and r sends 300
// frames back to s0.
func linkTimelineSwitch(w io.Writer) (paused, honored int64) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	sw := NewSwitch(k, "sw", cfg, 3, 256*sim.KiB)
	s0, s1, r := NewMAC(k, "s0", cfg), NewMAC(k, "s1", cfg), NewMAC(k, "r", cfg)
	sw.Attach(0, s0)
	sw.Attach(1, s1)
	sw.Attach(2, r)
	timelineSend(k, s0, 5, 600, 0, 2)
	timelineSend(k, s1, 6, 600, 10000, 2)
	timelineSend(k, r, 7, 300, 20000, 0)
	timelineRecv(k, "r", r, w, 8, 1200, true)
	timelineRecv(k, "s0", s0, w, 9, 300, false)
	k.Run(100 * sim.Millisecond)
	timelineStats(w, map[string]*MAC{"s0": s0, "s1": s1, "r": r})
	fmt.Fprintf(w, "sw dropped=%d\n", sw.FramesDropped())
	return r.PausesSent(), s0.PausesHonored() + s1.PausesHonored()
}
