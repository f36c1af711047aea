package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/swap"
)

func newTable(t *testing.T) (*Table, *core.System) {
	t.Helper()
	sys, err := core.NewSystem(params.Default())
	if err != nil {
		t.Fatal(err)
	}
	region, err := sys.Region(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Create(region, "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, sys
}

func freeAcc() memmodel.Accessor { return memmodel.Local{P: params.Default()} }

func TestCreateValidation(t *testing.T) {
	if _, err := Create(nil, "x", 0); err == nil {
		t.Error("nil region accepted")
	}
	sys, err := core.NewSystem(params.Default())
	if err != nil {
		t.Fatal(err)
	}
	region, _ := sys.Region(1)
	if _, err := Create(region, "", 0); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := Create(region, "x", 2); err == nil {
		t.Error("fanout 2 accepted")
	}
	tbl, err := Create(region, "orders", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "orders" || tbl.Index().MaxChildren() != DefaultFanout {
		t.Error("table metadata wrong")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	tbl, _ := newTable(t)
	acc := freeAcc()
	for k := uint64(1); k <= 100; k++ {
		if err := tbl.Put(k, []byte(fmt.Sprintf("row-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Rows != 100 {
		t.Errorf("Rows = %d", tbl.Rows)
	}
	for k := uint64(1); k <= 100; k++ {
		v, found, cost, err := tbl.Get(k, acc)
		if err != nil {
			t.Fatal(err)
		}
		if !found || string(v) != fmt.Sprintf("row-%03d", k) {
			t.Fatalf("Get(%d) = %q, %v", k, v, found)
		}
		if cost <= 0 {
			t.Error("query charged nothing")
		}
	}
	if _, found, _, err := tbl.Get(999, acc); err != nil || found {
		t.Error("phantom row found")
	}
}

func TestPutReplaces(t *testing.T) {
	tbl, _ := newTable(t)
	acc := freeAcc()
	if err := tbl.Put(7, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put(7, []byte("second, longer value")); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows != 1 {
		t.Errorf("Rows = %d after replace", tbl.Rows)
	}
	v, found, _, err := tbl.Get(7, acc)
	if err != nil || !found || string(v) != "second, longer value" {
		t.Errorf("Get = %q, %v, %v", v, found, err)
	}
}

func TestDelete(t *testing.T) {
	tbl, _ := newTable(t)
	acc := freeAcc()
	tbl.Put(1, []byte("a"))
	tbl.Put(2, []byte("b"))
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows != 1 {
		t.Errorf("Rows = %d", tbl.Rows)
	}
	if _, found, _, _ := tbl.Get(1, acc); found {
		t.Error("deleted row found")
	}
	if err := tbl.Delete(1); err == nil {
		t.Error("double delete accepted")
	}
	if err := tbl.Delete(42); err == nil {
		t.Error("delete of absent key accepted")
	}
	// Re-insert after delete.
	if err := tbl.Put(1, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if v, found, _, _ := tbl.Get(1, acc); !found || string(v) != "again" {
		t.Error("re-insert after delete broken")
	}
}

func TestEmptyValue(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Put(5, nil); err != nil {
		t.Fatal(err)
	}
	v, found, _, err := tbl.Get(5, freeAcc())
	if err != nil || !found || len(v) != 0 {
		t.Errorf("empty row = %q, %v, %v", v, found, err)
	}
}

func TestScanAndCount(t *testing.T) {
	tbl, _ := newTable(t)
	acc := freeAcc()
	for k := uint64(0); k < 50; k++ {
		tbl.Put(k*10, []byte(fmt.Sprintf("v%d", k*10)))
	}
	tbl.Delete(100)
	rows, cost, err := tbl.Scan(95, 205, acc)
	if err != nil {
		t.Fatal(err)
	}
	// keys 100 (deleted), 110..200 -> 10 live rows.
	if len(rows) != 10 {
		t.Fatalf("scan returned %d rows", len(rows))
	}
	if rows[0].Key != 110 || string(rows[0].Value) != "v110" {
		t.Errorf("first row = %+v", rows[0])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Key <= rows[i-1].Key {
			t.Error("scan out of order")
		}
	}
	if cost <= 0 {
		t.Error("scan charged nothing")
	}
	n, _ := tbl.Count(95, 205, acc)
	if n != 10 {
		t.Errorf("Count = %d", n)
	}
}

func TestRowsSpillToRemoteNodes(t *testing.T) {
	// A table bigger than the node's private memory lands rows on donor
	// nodes; queries still return the right bytes.
	p := params.Default()
	p.MemPerNode = 256 << 20
	p.PrivateMemPerNode = 64 << 20
	p.OSReserveBytes = 8 << 20
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	region, _ := sys.Region(1)
	tbl, err := Create(region, "big", 0)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0xAB}, 1<<20)
	for k := uint64(0); k < 150; k++ { // 150 MB of rows in a 64 MB private zone
		if err := tbl.Put(k, val); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if region.Agent().BorrowedBytes() == 0 {
		t.Fatal("table never spilled to remote memory")
	}
	v, found, _, err := tbl.Get(149, freeAcc())
	if err != nil || !found || !bytes.Equal(v, val) {
		t.Error("remote-resident row corrupted")
	}
}

func TestQueryCostOrdering(t *testing.T) {
	// The same query is cheapest on local memory, pricier on remote,
	// and (cold, scattered) prohibitive on swap with a tiny residency.
	tbl, _ := newTable(t)
	for k := uint64(0); k < 5000; k++ {
		tbl.Put(k, []byte("0123456789abcdef"))
	}
	p := params.Default()
	costOf := func(acc memmodel.Accessor) params.Duration {
		var total params.Duration
		for k := uint64(0); k < 5000; k += 97 {
			_, _, c, err := tbl.Get(k, acc)
			if err != nil {
				t.Fatal(err)
			}
			total += c
		}
		return total
	}
	local := costOf(memmodel.Local{P: p})
	remote := costOf(memmodel.Remote{P: p, Hops: 1})
	sw, err := memmodel.NewSwap(p, swapDevice{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	swapCost := costOf(sw)
	if !(local < remote && remote < swapCost) {
		t.Errorf("cost ordering violated: local %d, remote %d, swap %d", local, remote, swapCost)
	}
}

type swapDevice struct{}

func (swapDevice) FaultCost() params.Duration     { return 200 * params.Microsecond }
func (swapDevice) WritebackCost() params.Duration { return 200 * params.Microsecond }
func (swapDevice) Name() string                   { return "test-swap" }

func TestPutGetMatchesReferenceProperty(t *testing.T) {
	tbl, _ := newTable(t)
	acc := freeAcc()
	ref := map[uint64][]byte{}
	f := func(ops []uint16) bool {
		for _, op := range ops {
			key := uint64(op % 256)
			switch op % 3 {
			case 0, 1:
				val := []byte(fmt.Sprintf("val-%d-%d", key, op))
				if err := tbl.Put(key, val); err != nil {
					return false
				}
				ref[key] = val
			case 2:
				if _, ok := ref[key]; ok {
					if err := tbl.Delete(key); err != nil {
						return false
					}
					delete(ref, key)
				}
			}
		}
		if tbl.Rows != uint64(len(ref)) {
			return false
		}
		for k, want := range ref {
			got, found, _, err := tbl.Get(k, acc)
			if err != nil || !found || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFootprint(t *testing.T) {
	tbl, _ := newTable(t)
	if tbl.FootprintBytes() != 0 {
		t.Error("empty table has a footprint")
	}
	tbl.Put(1, make([]byte, 1000))
	if tbl.FootprintBytes() < 1000 {
		t.Errorf("footprint %d below stored bytes", tbl.FootprintBytes())
	}
}

func TestHashIndexBasics(t *testing.T) {
	if _, err := NewHashIndex(0); err == nil {
		t.Error("zero-capacity index accepted")
	}
	h, err := NewHashIndex(100)
	if err != nil {
		t.Fatal(err)
	}
	acc := freeAcc()
	var b memmodel.Batcher
	for k := uint64(0); k < 100; k++ {
		h.Insert(k, k*7)
	}
	if h.Size != 100 {
		t.Errorf("Size = %d", h.Size)
	}
	for k := uint64(0); k < 100; k++ {
		v, found, cost, accs := h.SearchBatch(k, acc, &b)
		if !found || v != k*7 {
			t.Fatalf("SearchBatch(%d) = %d, %v", k, v, found)
		}
		if cost <= 0 || accs == 0 {
			t.Error("search charged nothing")
		}
	}
	if _, found, _, _ := h.SearchBatch(999, acc, &b); found {
		t.Error("phantom key found")
	}
	// Update in place.
	h.Insert(5, 42)
	if v, ok := h.Lookup(5); !ok || v != 42 {
		t.Error("update lost")
	}
	if h.Size != 100 {
		t.Error("update changed size")
	}
	if h.MeanProbes() < 1 || h.MeanProbes() > 3 {
		t.Errorf("mean probes = %v, load factor discipline broken", h.MeanProbes())
	}
}

func TestHashIndexGrowth(t *testing.T) {
	h, err := NewHashIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	before := h.FootprintBytes()
	for k := uint64(0); k < 10000; k++ {
		h.Insert(k, k)
	}
	if h.FootprintBytes() <= before {
		t.Error("table never grew")
	}
	for k := uint64(0); k < 10000; k += 373 {
		if v, ok := h.Lookup(k); !ok || v != k {
			t.Fatalf("key %d lost across rehashes", k)
		}
	}
	// Load factor maintained.
	if float64(h.Size) > 0.7*float64(h.FootprintBytes()/HashBucketBytes) {
		t.Error("load factor exceeded")
	}
}

func TestHashIndexMatchesReferenceProperty(t *testing.T) {
	h, err := NewHashIndex(16)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64]uint64{}
	f := func(ops []uint32) bool {
		for _, op := range ops {
			k, v := uint64(op%4096), uint64(op)
			h.Insert(k, v)
			ref[k] = v
		}
		if h.Size != len(ref) {
			return false
		}
		for k, want := range ref {
			if got, ok := h.Lookup(k); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFootnote3HashVsBtree(t *testing.T) {
	// The paper's footnote 3: in remote memory, a hash index beats the
	// b-tree by an order of magnitude (constant probes vs a logarithmic
	// walk); under swap the two converge (both about one fault per
	// lookup, the b-tree's upper levels staying resident).
	p := params.Default()
	const keys = 100000
	h, err := NewHashIndex(keys)
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := newTable(t)
	for k := uint64(0); k < keys; k++ {
		h.Insert(k*2, k)
		bt.Index().InsertKV(k*2, k)
	}
	remote := memmodel.Remote{P: p, Hops: 1}
	var b memmodel.Batcher
	var hCost, bCost params.Duration
	for k := uint64(0); k < keys; k += 97 {
		_, _, c, _ := h.SearchBatch(k*2, remote, &b)
		hCost += c
		_, _, c2, _ := bt.Index().SearchKVBatch(k*2, remote, &b)
		bCost += c2
	}
	if float64(bCost)/float64(hCost) < 4 {
		t.Errorf("hash advantage in remote memory only %.1fx, footnote 3 promises much more", float64(bCost)/float64(hCost))
	}
}

// TestHashSearchBatchMatchesScalar drives the scalar reference walk and
// the batched search over identical indexes and stateful swap
// accessors: values, found flags, costs, access counts, probe
// statistics, and the accessors' fault time must all match.
func TestHashSearchBatchMatchesScalar(t *testing.T) {
	p := params.Default()
	newSwap := func() *memmodel.Swap {
		sw, err := memmodel.NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	scalarIdx, err := NewHashIndex(64)
	if err != nil {
		t.Fatal(err)
	}
	batchIdx, _ := NewHashIndex(64)
	for k := uint64(0); k < 20000; k++ {
		scalarIdx.Insert(k*3, k+1)
		batchIdx.Insert(k*3, k+1)
	}
	scalarMem, batchMem := newSwap(), newSwap()
	var b memmodel.Batcher
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		key := uint64(rng.Intn(70000))
		sv, sf, sc, sa := refHashSearch(scalarIdx, key, scalarMem)
		bv, bf, bc, ba := batchIdx.SearchBatch(key, batchMem, &b)
		if sv != bv || sf != bf || sc != bc || sa != ba {
			t.Fatalf("key %d: scalar (%d,%v,%d,%d) != batch (%d,%v,%d,%d)",
				key, sv, sf, sc, sa, bv, bf, bc, ba)
		}
		if b.Len() != 0 {
			t.Fatal("Batcher not empty after SearchBatch")
		}
	}
	if scalarIdx.Lookups != batchIdx.Lookups || scalarIdx.Probes != batchIdx.Probes {
		t.Errorf("probe statistics diverged: scalar %d/%d, batch %d/%d",
			scalarIdx.Lookups, scalarIdx.Probes, batchIdx.Lookups, batchIdx.Probes)
	}
	if scalarMem.FaultTime != batchMem.FaultTime {
		t.Errorf("fault time diverged: %d vs %d", scalarMem.FaultTime, batchMem.FaultTime)
	}
}

// refHashSearch is the scalar reference walk SearchBatch is checked
// against: the same probe sequence, each bucket read priced as a batch
// of one as it is made.
func refHashSearch(h *HashIndex, key uint64, mem memmodel.Accessor) (val uint64, found bool, cost params.Duration, accesses uint64) {
	h.Lookups++
	i := splitmix64(key) & h.mask
	for {
		cost += mem.AccessBatch([]memmodel.AccessOp{{Addr: h.bucketAddr(i)}})
		accesses++
		h.Probes++
		b := h.buckets[i]
		if !b.live {
			return 0, false, cost, accesses
		}
		if b.key == key {
			return b.val, true, cost, accesses
		}
		i = (i + 1) & h.mask
	}
}
