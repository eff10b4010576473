// Package imagestream provides the synthetic image source for the §6 case
// study: a deterministic stream standing in for the paper's second FPGA
// transmitting camera frames ("We assume that images are captured at a
// higher resolution than our classification accelerator can handle").
//
// The paper streams 16384 images totalling 147 GB — just under 9 MB per
// frame; the default geometry reproduces that size.
package imagestream

import "snacc/internal/sim"

// Image describes one frame in flight.
type Image struct {
	ID       int
	Width    int
	Height   int
	Channels int
}

// Bytes returns the raw frame size.
func (im Image) Bytes() int64 {
	return int64(im.Width) * int64(im.Height) * int64(im.Channels)
}

// Config describes the source.
type Config struct {
	Width, Height, Channels int
	Count                   int
}

// DefaultConfig reproduces the paper's geometry: 16384 frames of
// 2048×1461×3 ≈ 8.98 MB each ≈ 147 GB total.
func DefaultConfig() Config {
	return Config{Width: 2048, Height: 1461, Channels: 3, Count: 16384}
}

// Generator yields the image sequence.
type Generator struct {
	cfg  Config
	next int
}

// NewGenerator builds a source.
func NewGenerator(cfg Config) *Generator {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Channels <= 0 || cfg.Count <= 0 {
		panic("imagestream: invalid generator config")
	}
	return &Generator{cfg: cfg}
}

// Next returns the next image, or false when the stream ends.
func (g *Generator) Next() (Image, bool) {
	if g.next >= g.cfg.Count {
		return Image{}, false
	}
	im := Image{
		ID:       g.next,
		Width:    g.cfg.Width,
		Height:   g.cfg.Height,
		Channels: g.cfg.Channels,
	}
	g.next++
	return im, true
}

// Synthesize fills buf with deterministic pixel data for functional runs.
func Synthesize(im Image, seed uint64, buf []byte) {
	r := sim.NewRand(seed ^ uint64(im.ID)*0x9E37)
	for i := range buf {
		if i%64 == 0 {
			v := r.Uint64()
			for j := 0; j < 8 && i+j < len(buf); j++ {
				buf[i+j] = byte(v >> (8 * j))
			}
			continue
		}
		if i%64 < 8 {
			continue
		}
		buf[i] = byte(i * im.ID)
	}
}
