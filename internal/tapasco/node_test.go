package tapasco

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// nodeShapes are the bring-up shapes in use: per SSD, the number of
// Streamers bound to it.
var nodeShapes = map[string][]int{
	"1x1":         {1},
	"2 SSDs x 1":  {1, 1},
	"1 SSD x 2qp": {2},
}

func shapeSSD(i int) nvme.Config {
	cfg := nvme.DefaultConfig(fmt.Sprintf("ssd%d", i), testBAR+uint64(i)*0x100000)
	cfg.Functional = true
	return cfg
}

func shapeStreamer(i, j int) streamer.Config {
	cfg := streamer.DefaultConfig(fmt.Sprintf("snacc%d.%d", i, j), 0, streamer.URAM)
	cfg.Functional = true
	return cfg
}

// bootNode brings shape up through Node.Boot.
func bootNode(shape []int) (*sim.Kernel, []*streamer.Streamer, error) {
	k := sim.NewKernel()
	n := NewNode(k, DefaultU280())
	var sts []*streamer.Streamer
	for i, count := range shape {
		ssd := n.AddSSD(shapeSSD(i))
		for j := 0; j < count; j++ {
			sts = append(sts, n.AddStreamer(ssd, shapeStreamer(i, j)))
		}
	}
	return k, sts, n.Boot()
}

// bootPrimitives brings shape up by hand, the way a rig built from the
// primitives does: platform, SSDs and Streamers, one driver per SSD, and an
// "init" process attaching Streamer j of each SSD to queue pair j+1.
func bootPrimitives(shape []int) (*sim.Kernel, []*streamer.Streamer, error) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	var sts []*streamer.Streamer
	drvs := make([]*Driver, len(shape))
	for i, count := range shape {
		cfg := shapeSSD(i)
		nvme.New(k, pl.Fabric, cfg)
		for j := 0; j < count; j++ {
			sts = append(sts, pl.AddStreamer(shapeStreamer(i, j)))
		}
		drvs[i] = NewDriver(pl, cfg.Name, cfg.BARBase)
	}
	err := errors.New("initialization stalled")
	k.Spawn("init", func(p *sim.Proc) {
		next := 0
		for i, count := range shape {
			if err = drvs[i].InitController(p); err != nil {
				return
			}
			for j := 0; j < count; j++ {
				if err = drvs[i].AttachStreamer(p, sts[next], uint16(j+1)); err != nil {
					return
				}
				next++
			}
		}
	})
	k.Run(0)
	return k, sts, err
}

func pattern(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, int(sim.MiB)) }

// roundTrip writes then reads back 1 MiB through every Streamer and
// returns the bytes read, in Streamer order.
func roundTrip(k *sim.Kernel, sts []*streamer.Streamer) [][]byte {
	out := make([][]byte, len(sts))
	k.Spawn("io", func(p *sim.Proc) {
		for i, st := range sts {
			c := streamer.NewClient(st)
			addr := uint64(i) * uint64(sim.MiB)
			c.Write(p, addr, sim.MiB, pattern(i))
			out[i] = c.Read(p, addr, sim.MiB)
		}
	})
	k.Run(0)
	return out
}

// TestNodeMatchesPrimitiveSequence pins Node's bring-up to the hand-rolled
// primitive sequence: for every shape, both reach the same simulated time
// after the same number of events, and a following write/read runs
// identically and returns the written bytes.
func TestNodeMatchesPrimitiveSequence(t *testing.T) {
	for name, shape := range nodeShapes {
		t.Run(name, func(t *testing.T) {
			nk, nsts, err := bootNode(shape)
			if err != nil {
				t.Fatalf("Node.Boot: %v", err)
			}
			pk, psts, err := bootPrimitives(shape)
			if err != nil {
				t.Fatalf("primitive bring-up: %v", err)
			}
			if nk.Now() != pk.Now() || nk.EventsExecuted() != pk.EventsExecuted() {
				t.Fatalf("boot: node at %v after %d events, primitives at %v after %d",
					nk.Now(), nk.EventsExecuted(), pk.Now(), pk.EventsExecuted())
			}
			ndata, pdata := roundTrip(nk, nsts), roundTrip(pk, psts)
			if nk.Now() != pk.Now() || nk.EventsExecuted() != pk.EventsExecuted() {
				t.Fatalf("round trip: node at %v after %d events, primitives at %v after %d",
					nk.Now(), nk.EventsExecuted(), pk.Now(), pk.EventsExecuted())
			}
			for i := range ndata {
				if !bytes.Equal(ndata[i], pattern(i)) || !bytes.Equal(pdata[i], pattern(i)) {
					t.Errorf("streamer %d: read back differs from the written pattern", i)
				}
			}
		})
	}
}
