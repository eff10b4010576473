package imagestream

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesPaperVolume(t *testing.T) {
	cfg := DefaultConfig()
	// §6.2: 16384 images totalling 147 GB.
	if cfg.Count != 16384 {
		t.Fatalf("count = %d", cfg.Count)
	}
	per := Image{Width: cfg.Width, Height: cfg.Height, Channels: cfg.Channels}.Bytes()
	total := per * int64(cfg.Count)
	if total < 146e9 || total > 148e9 {
		t.Fatalf("total stream = %.1f GB, paper: 147 GB", float64(total)/1e9)
	}
	if per < 8.9e6 || per > 9.1e6 {
		t.Fatalf("per-image = %.2f MB, want ~9", float64(per)/1e6)
	}
}

func TestGeneratorSequence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Count = 5
	g := NewGenerator(cfg)
	for i := 0; i < 5; i++ {
		im, ok := g.Next()
		if !ok || im.ID != i {
			t.Fatalf("image %d: ok=%v id=%d", i, ok, im.ID)
		}
	}
	if _, ok := g.Next(); ok {
		t.Fatal("generator did not terminate")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	im := Image{ID: 3, Width: 64, Height: 64, Channels: 3}
	a := make([]byte, im.Bytes())
	b := make([]byte, im.Bytes())
	Synthesize(im, 7, a)
	Synthesize(im, 7, b)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different pixels")
	}
	c := make([]byte, im.Bytes())
	Synthesize(im, 8, c)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical pixels")
	}
}

func TestSynthesizeDiffersPerImage(t *testing.T) {
	a := make([]byte, 1024)
	b := make([]byte, 1024)
	Synthesize(Image{ID: 1, Width: 16, Height: 16, Channels: 4}, 7, a)
	Synthesize(Image{ID: 2, Width: 16, Height: 16, Channels: 4}, 7, b)
	if bytes.Equal(a, b) {
		t.Fatal("different images produced identical pixels")
	}
}

func TestBytesProperty(t *testing.T) {
	f := func(w, h, c uint8) bool {
		im := Image{Width: int(w) + 1, Height: int(h) + 1, Channels: int(c)%4 + 1}
		return im.Bytes() == int64(im.Width)*int64(im.Height)*int64(im.Channels)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size generator accepted")
		}
	}()
	NewGenerator(Config{})
}
