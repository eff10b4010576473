package bench

import (
	"fmt"
	"strings"

	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// TimelinePoint is one sample of instantaneous write bandwidth.
type TimelinePoint struct {
	At   sim.Time
	GBps float64
}

// Timeline samples the sequential-write bandwidth of a Streamer variant
// over time. Two effects the averaged figures hide become visible: the
// initial inflation while the SSD's write buffer absorbs data, and the
// firmware banding epochs alternating between the two program rates —
// the time-resolved view behind Figure 4a's stacked "fluctuating
// bandwidth" bars.
func Timeline(v streamer.Variant, totalBytes int64, window sim.Time) []TimelinePoint {
	rig := buildSNAcc(v, nil, func(c *nvme.Config) { c.NAND.EpochBytes = totalBytes / 4 })
	defer rig.k.Close()
	var points []TimelinePoint
	done := false
	rig.k.Spawn("sampler", func(p *sim.Proc) {
		var last int64
		for !done {
			p.Sleep(window)
			cur := rig.dev.Port().PayloadRx()
			points = append(points, TimelinePoint{
				At:   p.Now(),
				GBps: float64(cur-last) / window.Seconds() / 1e9,
			})
			last = cur
		}
	})
	rig.measure(func(p *sim.Proc) {
		streamer.SeqWrite(p, rig.c, 0, totalBytes)
		done = true
	})
	return points
}

// RenderTimeline draws an ASCII bandwidth-over-time strip chart.
func RenderTimeline(v string, points []TimelinePoint, fullScale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== write bandwidth over time — %s (full scale %.1f GB/s) ==\n", v, fullScale)
	const width = 50
	for _, pt := range points {
		bars := int(pt.GBps / fullScale * width)
		if bars < 0 {
			bars = 0
		}
		if bars > width {
			bars = width
		}
		fmt.Fprintf(&b, "%10v  %5.2f  |%s\n", pt.At, pt.GBps, strings.Repeat("#", bars))
	}
	return b.String()
}
