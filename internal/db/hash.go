package db

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/params"
)

// HashIndex is the alternative the paper's footnote 3 names: "in-memory
// databases usually implement hash indexes, as this structure presents
// even better performance when it is stored in memory. Thus, by using
// b-trees in this study, we relinquish the advantage over remote swap
// provided by hash indexes when used in remote memory."
//
// It is an open-addressing, linear-probing table of 16-byte buckets in a
// modeled address space: a lookup costs a couple of probes at constant
// remote latency, an order of magnitude fewer memory touches than a
// B-tree walk — exactly the advantage the footnote concedes. Range
// queries, of course, do not exist here; that is what the B-tree buys.
type HashIndex struct {
	buckets []hbucket
	mask    uint64

	// Size counts live keys; Probes and Lookups feed mean-probe stats.
	Size    int
	Probes  uint64
	Lookups uint64
}

// hbucket is one modeled 16-byte slot: 8-byte key, 8-byte payload.
type hbucket struct {
	key  uint64
	val  uint64
	live bool
}

// HashBucketBytes is the modeled bucket size.
const HashBucketBytes = 16

// maxLoad is the resize threshold (load factor).
const maxLoad = 0.7

// NewHashIndex creates a table sized for the expected key count.
func NewHashIndex(expected int) (*HashIndex, error) {
	if expected < 1 {
		return nil, fmt.Errorf("db: hash index for %d keys", expected)
	}
	capacity := 16
	for float64(expected) > maxLoad*float64(capacity) {
		capacity *= 2
	}
	return &HashIndex{buckets: make([]hbucket, capacity), mask: uint64(capacity - 1)}, nil
}

// splitmix64 is the probe hash — cheap, well-mixed, deterministic.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bucketAddr returns the modeled address of bucket i.
func (h *HashIndex) bucketAddr(i uint64) uint64 { return i * HashBucketBytes }

// Insert adds or updates a key (function only; population is untimed,
// like the b-tree's).
func (h *HashIndex) Insert(key, val uint64) {
	if float64(h.Size+1) > maxLoad*float64(len(h.buckets)) {
		h.grow()
	}
	i := splitmix64(key) & h.mask
	for {
		b := &h.buckets[i]
		if !b.live {
			*b = hbucket{key: key, val: val, live: true}
			h.Size++
			return
		}
		if b.key == key {
			b.val = val
			return
		}
		i = (i + 1) & h.mask
	}
}

func (h *HashIndex) grow() {
	old := h.buckets
	h.buckets = make([]hbucket, 2*len(old))
	h.mask = uint64(len(h.buckets) - 1)
	h.Size = 0
	for _, b := range old {
		if b.live {
			h.Insert(b.key, b.val)
		}
	}
}

// SearchBatch looks a key up, charging one read per probed bucket to
// mem. Linear probing keeps consecutive probes on the same page, so even
// the swap configuration usually pays for one page per lookup. The probe
// sequence is recorded into b and priced in one AccessBatch call; b must
// be empty between calls.
func (h *HashIndex) SearchBatch(key uint64, mem memmodel.Accessor, b *memmodel.Batcher) (val uint64, found bool, cost params.Duration, accesses uint64) {
	h.Lookups++
	i := splitmix64(key) & h.mask
	for {
		b.Read(h.bucketAddr(i))
		h.Probes++
		bk := h.buckets[i]
		if !bk.live {
			accesses = uint64(b.Len())
			return 0, false, b.Flush(mem), accesses
		}
		if bk.key == key {
			accesses = uint64(b.Len())
			return bk.val, true, b.Flush(mem), accesses
		}
		i = (i + 1) & h.mask
	}
}

// Lookup is SearchBatch without an accessor (function only).
func (h *HashIndex) Lookup(key uint64) (uint64, bool) {
	i := splitmix64(key) & h.mask
	for {
		b := h.buckets[i]
		if !b.live {
			return 0, false
		}
		if b.key == key {
			return b.val, true
		}
		i = (i + 1) & h.mask
	}
}

// FootprintBytes returns the modeled table size.
func (h *HashIndex) FootprintBytes() uint64 {
	return uint64(len(h.buckets)) * HashBucketBytes
}

// MeanProbes returns the average probes per lookup so far.
func (h *HashIndex) MeanProbes() float64 {
	if h.Lookups == 0 {
		return 0
	}
	return float64(h.Probes) / float64(h.Lookups)
}
