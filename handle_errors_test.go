package snacc

import (
	"bytes"
	"testing"
)

// TestEmptyWriteFacade: an empty write is acknowledged with nil instead of
// stalling the Streamer, and a 4 KiB round trip after it is byte-exact.
func TestEmptyWriteFacade(t *testing.T) {
	sys := MustNewSystem(Options{})
	want := bytes.Repeat([]byte{0x3c, 0xc3, 0x5a}, 4096/3+1)[:4096]
	var errEmpty, errWrite, errRead error
	var got []byte
	sys.Execute(func(h *Handle) {
		errEmpty = h.WriteErr(0, nil)
		errWrite = h.WriteErr(4096, want)
		got, errRead = h.ReadErr(4096, int64(len(want)))
	})
	if errEmpty != nil || errWrite != nil || errRead != nil {
		t.Fatalf("empty write %v, write %v, read %v; want all nil", errEmpty, errWrite, errRead)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip after an empty write corrupted data")
	}
}

// TestBadTransferShapes: misaligned addresses, lengths that are not a
// multiple of 512, and empty or negative reads come back from every Handle
// transfer as errors on a plain system and on a cluster, instead of
// panicking inside the simulation; the system keeps serving afterwards.
func TestBadTransferShapes(t *testing.T) {
	systems := map[string]Options{
		"plain":   {},
		"cluster": {Cluster: &ClusterOptions{Nodes: 2, Replication: 2, Quorum: 1}},
	}
	cases := []struct {
		name string
		call func(h *Handle) error
	}{
		{"read misaligned address", func(h *Handle) error { _, err := h.ReadErr(1, 512); return err }},
		{"read misaligned length", func(h *Handle) error { _, err := h.ReadErr(0, 100); return err }},
		{"read empty", func(h *Handle) error { _, err := h.ReadErr(0, 0); return err }},
		{"read negative", func(h *Handle) error { _, err := h.ReadErr(0, -512); return err }},
		{"write misaligned address", func(h *Handle) error { return h.WriteErr(1, make([]byte, 512)) }},
		{"write misaligned length", func(h *Handle) error { return h.WriteErr(0, make([]byte, 100)) }},
		{"timed read empty", func(h *Handle) error { return h.ReadTimed(0, 0) }},
		{"timed write misaligned address", func(h *Handle) error { return h.WriteTimed(512+1, 512) }},
	}
	for name, opts := range systems {
		sys := MustNewSystem(opts)
		want := bytes.Repeat([]byte{0xa7}, 4096)
		var got []byte
		var err error
		sys.Execute(func(h *Handle) {
			for _, tc := range cases {
				if err := tc.call(h); err == nil {
					t.Errorf("%s: %s returned nil", name, tc.name)
				}
			}
			if err = h.WriteErr(0, want); err == nil {
				got, err = h.ReadErr(0, int64(len(want)))
			}
		})
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: round trip after the rejected shapes: err=%v, bytes equal=%v", name, err, bytes.Equal(got, want))
		}
	}
}
