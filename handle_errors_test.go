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

// piecePattern fills n bytes whose every 1 MiB piece (the Streamer's
// command size) and every 256 KiB cluster chunk is distinct.
func piecePattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7+i>>12+i>>18*29) | 1
	}
	return data
}

// TestReadErrSingleSystemPacksGoodPieces pins what a single system's failed
// ReadErr returns: the bytes of the pieces that succeeded, packed in order,
// so the buffer falls short of the request.
func TestReadErrSingleSystemPacksGoodPieces(t *testing.T) {
	const piece = 1 << 20
	sys := MustNewSystem(Options{Variant: URAM, Faults: &FaultOptions{
		Seed:          3,
		ReadErrorRate: 0.5,
		MaxRetries:    -1, // a failed piece aborts, the others still deliver
	}})
	want := piecePattern(4 * piece)
	sys.Execute(func(h *Handle) {
		check(t, h.WriteErr(0, want))
		for i := 0; i < 16; i++ {
			got, err := h.ReadErr(0, int64(len(want)))
			if err == nil || len(got) == 0 {
				continue // no piece or every piece failed: try again
			}
			if len(got) >= len(want) || len(got)%piece != 0 {
				t.Fatalf("failed read returned %d bytes, want whole pieces short of %d", len(got), len(want))
			}
			// Each returned piece is one of the request's, in order.
			next := 0
			for off := 0; off < len(got); off += piece {
				for next < len(want)/piece && !bytes.Equal(got[off:off+piece], want[next*piece:(next+1)*piece]) {
					next++
				}
				if next == len(want)/piece {
					t.Fatalf("returned piece at %d is not a later piece of the request", off)
				}
				next++
			}
			return
		}
		t.Fatal("no read failed in part: the 50% error rate never split a read")
	})
}

// TestReadErrClusterZerosFailedPieces pins what a cluster's failed ReadErr
// returns: all n bytes, the chunks that were served in place and zeros
// where a chunk failed. With R=1 and every read on node 1 failing, node 1's
// chunks cannot fail over.
func TestReadErrClusterZerosFailedPieces(t *testing.T) {
	const chunk = 256 << 10
	sys := MustNewSystem(Options{Cluster: &ClusterOptions{
		Nodes: 2, Replication: 1, Quorum: 1,
		NodeFaults: map[int]*FaultOptions{1: {ReadErrorRate: 1, MaxRetries: -1}},
	}})
	want := piecePattern(16 * chunk)
	var got []byte
	var err error
	sys.Execute(func(h *Handle) {
		check(t, h.WriteErr(0, want))
		got, err = h.ReadErr(0, int64(len(want)))
	})
	if err == nil {
		t.Fatal("a read spanning a node whose every read fails returned nil")
	}
	if len(got) != len(want) {
		t.Fatalf("failed cluster read returned %d bytes, want all %d", len(got), len(want))
	}
	zero := make([]byte, chunk)
	var served, zeroed int
	for off := 0; off < len(want); off += chunk {
		switch {
		case bytes.Equal(got[off:off+chunk], want[off:off+chunk]):
			served++
		case bytes.Equal(got[off:off+chunk], zero):
			zeroed++
		default:
			t.Fatalf("chunk at %d is neither its data nor zeros", off)
		}
	}
	if served == 0 || zeroed == 0 {
		t.Fatalf("%d chunks served and %d zeroed, want some of each", served, zeroed)
	}
}
