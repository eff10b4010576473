// Kvstore demonstrates the paper's motivating use case — "network
// accessible databases ... often paired with pre-processing before storing
// results" (§1) — as a log-structured key-value store persisted through
// the NVMe Streamer: puts append 512-byte-aligned records to an on-SSD
// log, an in-fabric index maps keys to log offsets, and gets stream the
// records back. Everything after setup runs on the simulated FPGA with no
// host involvement.
//
//	go run ./examples/kvstore
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	"snacc"
)

// record layout: [8B key length][8B value length][key][value][padding].
const recordAlign = 512

type kvStore struct {
	h      *snacc.Handle
	cursor uint64
	index  map[string]indexEntry
	puts   int
}

type indexEntry struct {
	off  uint64
	size int64
}

func newKV(h *snacc.Handle) *kvStore {
	return &kvStore{h: h, index: make(map[string]indexEntry)}
}

func (kv *kvStore) put(key string, value []byte) {
	rec := make([]byte, 16+len(key)+len(value))
	binary.LittleEndian.PutUint64(rec[0:], uint64(len(key)))
	binary.LittleEndian.PutUint64(rec[8:], uint64(len(value)))
	copy(rec[16:], key)
	copy(rec[16+len(key):], value)
	padded := (int64(len(rec)) + recordAlign - 1) &^ (recordAlign - 1)
	buf := make([]byte, padded)
	copy(buf, rec)
	if err := kv.h.WriteErr(kv.cursor, buf); err != nil {
		log.Fatalf("put %s: %v", key, err)
	}
	kv.index[key] = indexEntry{off: kv.cursor, size: padded}
	kv.cursor += uint64(padded)
	kv.puts++
}

func (kv *kvStore) get(key string) ([]byte, bool) {
	e, ok := kv.index[key]
	if !ok {
		return nil, false
	}
	raw, err := kv.h.ReadErr(e.off, e.size)
	if err != nil {
		log.Fatalf("get %s: %v", key, err)
	}
	klen := binary.LittleEndian.Uint64(raw[0:])
	vlen := binary.LittleEndian.Uint64(raw[8:])
	return raw[16+klen : 16+klen+vlen], true
}

func main() {
	sys, err := snacc.NewSystem(snacc.Options{Variant: snacc.HostDRAM})
	if err != nil {
		log.Fatalf("init: %v", err)
	}

	sys.Execute(func(h *snacc.Handle) {
		kv := newKV(h)
		start := h.Now()

		// Ingest a batch of documents, the way a pre-processing pipeline
		// would persist enriched records.
		const n = 512
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("doc/%04d", i)
			val := bytes.Repeat([]byte{byte(i)}, 1024+i*7%2048)
			kv.put(key, val)
		}
		ingested := h.Now()

		// Point lookups, including overwrite semantics.
		kv.put("doc/0001", []byte("updated-value"))
		if v, ok := kv.get("doc/0001"); !ok || string(v) != "updated-value" {
			log.Fatal("overwrite lookup failed")
		}
		for _, probe := range []int{0, 100, 511} {
			key := fmt.Sprintf("doc/%04d", probe)
			v, ok := kv.get(key)
			if !ok {
				log.Fatalf("missing key %s", key)
			}
			want := bytes.Repeat([]byte{byte(probe)}, 1024+probe*7%2048)
			if !bytes.Equal(v, want) {
				log.Fatalf("value mismatch for %s", key)
			}
		}
		if _, ok := kv.get("doc/9999"); ok {
			log.Fatal("phantom key")
		}
		done := h.Now()

		fmt.Printf("ingested %d records (%d bytes of log) in %.2f ms\n",
			kv.puts, kv.cursor, float64(ingested-start)/1e6)
		fmt.Printf("lookups verified in %.2f ms; log cursor at %d\n",
			float64(done-ingested)/1e6, kv.cursor)
	})

	st := sys.Stats()
	fmt.Printf("NVMe commands: %d, errors: %d\n", st.CommandsRetired, st.CommandErrors)
}
