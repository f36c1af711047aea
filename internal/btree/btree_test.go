package btree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memmodel"
	"repro/internal/params"
)

// countingMem charges 1 per access and records addresses.
type countingMem struct {
	n     uint64
	addrs []uint64
}

func (c *countingMem) AccessBatch(ops []memmodel.AccessOp) params.Duration {
	for _, op := range ops {
		c.n++
		c.addrs = append(c.addrs, op.Addr)
	}
	return params.Duration(len(ops))
}
func (c *countingMem) Name() string { return "counting" }

func TestNewValidation(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Error("fanout 2 accepted")
	}
	if _, err := New(3); err != nil {
		t.Errorf("fanout 3 rejected: %v", err)
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr, _ := New(4)
	keys := []uint64{50, 10, 90, 30, 70, 20, 80, 60, 40, 100, 5, 95}
	for _, k := range keys {
		tr.Insert(k)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Size != len(keys) {
		t.Errorf("Size = %d", tr.Size)
	}
	mem := &countingMem{}
	var b memmodel.Batcher
	for _, k := range keys {
		found, _, accs := tr.SearchBatch(k, mem, &b)
		if !found {
			t.Errorf("key %d missing", k)
		}
		if accs == 0 {
			t.Error("search charged no accesses")
		}
	}
	for _, k := range []uint64{0, 11, 55, 101} {
		if found, _, _ := tr.SearchBatch(k, mem, &b); found {
			t.Errorf("phantom key %d found", k)
		}
	}
	// Duplicate insert is a no-op.
	tr.Insert(50)
	if tr.Size != len(keys) {
		t.Error("duplicate insert changed size")
	}
}

func TestInsertMatchesReferenceProperty(t *testing.T) {
	f := func(raw []uint16, fanoutSel uint8) bool {
		fanout := 3 + int(fanoutSel%14)
		tr, err := New(fanout)
		if err != nil {
			return false
		}
		ref := map[uint64]bool{}
		for _, r := range raw {
			k := uint64(r)
			tr.Insert(k)
			ref[k] = true
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		if tr.Size != len(ref) {
			return false
		}
		for k := range ref {
			if !tr.Contains(k) {
				return false
			}
		}
		// Walk yields sorted order.
		var last *uint64
		ok := true
		tr.Walk(func(k uint64) {
			if last != nil && *last >= k {
				ok = false
			}
			kk := k
			last = &kk
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadShape(t *testing.T) {
	// 10 keys, fanout 3: minimal depth d with 3^d-1 >= 10 is 3.
	tr, _ := New(3)
	keys := make([]uint64, 10)
	for i := range keys {
		keys[i] = uint64(i+1) * 7
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 3 {
		t.Errorf("depth = %d, want 3", tr.Depth())
	}
	for _, k := range keys {
		if !tr.Contains(k) {
			t.Errorf("bulk-loaded key %d missing", k)
		}
	}
}

func TestBulkLoadMinimalDepthProperty(t *testing.T) {
	f := func(nSel uint16, fanoutSel uint8) bool {
		fanout := 3 + int(fanoutSel%30)
		n := int(nSel%2000) + 1
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i) * 3
		}
		tr, err := New(fanout)
		if err != nil {
			return false
		}
		if tr.BulkLoad(keys) != nil {
			return false
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		d := tr.Depth()
		// Minimal: capacity at d covers n, capacity at d-1 does not.
		if capacityAtDepth(fanout, d) < uint64(n) {
			return false
		}
		if d > 1 && capacityAtDepth(fanout, d-1) >= uint64(n) {
			return false
		}
		// Spot-check membership.
		for i := 0; i < n; i += 97 {
			if !tr.Contains(keys[i]) {
				return false
			}
		}
		return !tr.Contains(1) // odd keys absent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadErrors(t *testing.T) {
	tr, _ := New(4)
	if err := tr.BulkLoad([]uint64{1, 2, 2}); err == nil {
		t.Error("duplicate keys accepted")
	}
	tr2, _ := New(4)
	if err := tr2.BulkLoad(nil); err != nil {
		t.Errorf("empty bulk load rejected: %v", err)
	}
	tr2.Insert(5)
	if err := tr2.BulkLoad([]uint64{1}); err == nil {
		t.Error("bulk load into non-empty tree accepted")
	}
}

func TestUnsortedBulkLoad(t *testing.T) {
	tr, _ := New(8)
	keys := []uint64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	tr.Walk(func(k uint64) { got = append(got, k) })
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("walk not sorted: %v", got)
		}
	}
}

func TestSearchCostLogarithmic(t *testing.T) {
	tr, _ := New(168)
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	mem := &countingMem{}
	var b memmodel.Batcher
	rng := rand.New(rand.NewSource(7))
	var total uint64
	const searches = 1000
	for i := 0; i < searches; i++ {
		_, _, accs := tr.SearchBatch(uint64(rng.Intn(200000)), mem, &b)
		total += accs
	}
	perSearch := float64(total) / searches
	// depth ~ 3 levels × (log2(167) ≈ 7.4 probes + header + child) ≈ 30.
	if perSearch < 5 || perSearch > 60 {
		t.Errorf("accesses per search = %v, outside the logarithmic band", perSearch)
	}
}

func TestNodePageDiscipline(t *testing.T) {
	// One-page nodes must never straddle a page.
	tr, _ := New(168)
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	size := NodeBytes(168)
	if size > params.PageSize {
		t.Fatalf("fanout-168 node is %d bytes; the test premise is wrong", size)
	}
	var walkNodes func(n *node) error
	walkNodes = func(n *node) error {
		if n == nil {
			return nil
		}
		if n.base/params.PageSize != (n.base+size-1)/params.PageSize {
			t.Fatalf("node at %#x straddles a page", n.base)
		}
		for _, c := range n.children {
			if err := walkNodes(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walkNodes(tr.root); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPageNodesPageAligned(t *testing.T) {
	tr, _ := New(512) // node = 16 + 511*24 = 12280 bytes: 3 pages
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	var check func(n *node)
	check = func(n *node) {
		if n == nil {
			return
		}
		if n.base%params.PageSize != 0 {
			t.Fatalf("multi-page node at %#x not page-aligned", n.base)
		}
		for _, c := range n.children {
			check(c)
		}
	}
	check(tr.root)
}

func TestSearchUnderSwapLocality(t *testing.T) {
	// A fanout-168 node fills one page: a search touching d nodes under
	// cold swap should fault about d pages; re-searching the same key is
	// all hits.
	p := params.Default()
	tr, _ := New(168)
	keys := make([]uint64, 200000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	sw, err := memmodel.NewSwap(p, fakeDev{}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var b memmodel.Batcher
	tr.SearchBatch(12345, sw, &b)
	coldMisses := sw.Cache().Misses
	if coldMisses == 0 || int(coldMisses) > tr.Depth() {
		t.Errorf("cold search faulted %d pages over depth %d", coldMisses, tr.Depth())
	}
	tr.SearchBatch(12345, sw, &b)
	if sw.Cache().Misses != coldMisses {
		t.Error("warm re-search faulted again")
	}
}

type fakeDev struct{}

func (fakeDev) FaultCost() params.Duration     { return 1000 }
func (fakeDev) WritebackCost() params.Duration { return 1000 }
func (fakeDev) Name() string                   { return "fake" }

func TestFootprintGrows(t *testing.T) {
	tr, _ := New(32)
	if tr.FootprintBytes() != 0 {
		t.Error("empty tree has a footprint")
	}
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	want := uint64(tr.Nodes) * NodeBytes(32)
	if tr.FootprintBytes() < want {
		t.Errorf("footprint %d below %d nodes worth", tr.FootprintBytes(), tr.Nodes)
	}
}

func TestEmptyTreeSearch(t *testing.T) {
	tr, _ := New(8)
	mem := &countingMem{}
	var b memmodel.Batcher
	if found, cost, accs := tr.SearchBatch(1, mem, &b); found || cost != 0 || accs != 0 {
		t.Error("empty tree search misbehaved")
	}
	if tr.Depth() != 0 {
		t.Error("empty tree has depth")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRangeScanSmall(t *testing.T) {
	tr, _ := New(4)
	for k := uint64(10); k <= 100; k += 10 {
		tr.Insert(k)
	}
	mem := &countingMem{}
	var b memmodel.Batcher
	var got []uint64
	cost, accs := tr.RangeScanBatch(25, 75, mem, &b, func(k uint64) { got = append(got, k) })
	want := []uint64{30, 40, 50, 60, 70}
	if len(got) != len(want) {
		t.Fatalf("scan returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan returned %v, want %v", got, want)
		}
	}
	if cost == 0 || accs == 0 {
		t.Error("scan charged nothing")
	}
	// Inclusive bounds.
	got = nil
	tr.RangeScanBatch(30, 70, mem, &b, func(k uint64) { got = append(got, k) })
	if len(got) != 5 || got[0] != 30 || got[4] != 70 {
		t.Errorf("inclusive scan = %v", got)
	}
	// Empty and inverted ranges.
	got = nil
	tr.RangeScanBatch(101, 999, mem, &b, func(k uint64) { got = append(got, k) })
	if len(got) != 0 {
		t.Errorf("out-of-range scan = %v", got)
	}
	if c, a := tr.RangeScanBatch(50, 20, mem, &b, func(uint64) { t.Fatal("visited") }); c != 0 || a != 0 {
		t.Error("inverted range did work")
	}
}

func TestRangeScanMatchesWalkProperty(t *testing.T) {
	f := func(raw []uint16, loSel, hiSel uint16, fanoutSel uint8) bool {
		fanout := 3 + int(fanoutSel%20)
		tr, err := New(fanout)
		if err != nil {
			return false
		}
		for _, r := range raw {
			tr.Insert(uint64(r))
		}
		lo, hi := uint64(loSel), uint64(hiSel)
		if lo > hi {
			lo, hi = hi, lo
		}
		var want []uint64
		tr.Walk(func(k uint64) {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		})
		var got []uint64
		var b memmodel.Batcher
		tr.RangeScanBatch(lo, hi, &countingMem{}, &b, func(k uint64) { got = append(got, k) })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRangeScanCostProportionalToRange(t *testing.T) {
	tr, _ := New(168)
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	mem := &countingMem{}
	var b memmodel.Batcher
	_, small := tr.RangeScanBatch(1000, 1100, mem, &b, func(uint64) {})
	_, large := tr.RangeScanBatch(1000, 51000, mem, &b, func(uint64) {})
	if large < 100*small/2 {
		t.Errorf("scan cost not proportional: %d accesses for 100 keys, %d for 50000", small, large)
	}
	// A scan never visits dramatically more than keys + path nodes.
	if large > 80000 {
		t.Errorf("scan of 50000 keys cost %d accesses", large)
	}
}

// newSwapMem builds a small stateful accessor so batch-equivalence
// tests exercise order-dependent pricing, not just counting.
func newSwapMem(t *testing.T) memmodel.Accessor {
	t.Helper()
	p := params.Default()
	acc, err := memmodel.Build(memmodel.ConfigRemoteSwap, p, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// TestSearchBatchMatchesScalar drives the scalar reference walk and the
// batched search over identical trees and stateful accessors: found flags, costs,
// access counts, and the address sequence seen by the memory must all
// match.
func TestSearchBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fanout := range []int{3, 8, 168} {
		scalarTree, _ := New(fanout)
		batchTree, _ := New(fanout)
		keys := make([]uint64, 5000)
		for i := range keys {
			keys[i] = uint64(i) * 3
		}
		if err := scalarTree.BulkLoad(keys); err != nil {
			t.Fatal(err)
		}
		if err := batchTree.BulkLoad(keys); err != nil {
			t.Fatal(err)
		}
		scalarMem := newSwapMem(t)
		batchMem := newSwapMem(t)
		var b memmodel.Batcher
		for i := 0; i < 3000; i++ {
			key := uint64(rng.Intn(16000))
			sf, sc, sa := refSearch(scalarTree, key, scalarMem)
			bf, bc, ba := batchTree.SearchBatch(key, batchMem, &b)
			if sf != bf || sc != bc || sa != ba {
				t.Fatalf("fanout %d key %d: scalar (%v,%d,%d) != batch (%v,%d,%d)",
					fanout, key, sf, sc, sa, bf, bc, ba)
			}
			if b.Len() != 0 {
				t.Fatal("Batcher not empty after SearchBatch")
			}
		}
	}
}

// TestSearchKVBatchMatchesScalar pins SearchKVBatch against the scalar
// reference walk, including the extra payload read on hits.
func TestSearchKVBatchMatchesScalar(t *testing.T) {
	scalarTree, _ := New(16)
	batchTree, _ := New(16)
	for i := uint64(0); i < 4000; i++ {
		scalarTree.InsertKV(i*2, i+100)
		batchTree.InsertKV(i*2, i+100)
	}
	scalarMem := newSwapMem(t)
	batchMem := newSwapMem(t)
	var b memmodel.Batcher
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		key := uint64(rng.Intn(9000))
		sv, sf, sc, sa := refSearchKV(scalarTree, key, scalarMem)
		bv, bf, bc, ba := batchTree.SearchKVBatch(key, batchMem, &b)
		if sv != bv || sf != bf || sc != bc || sa != ba {
			t.Fatalf("key %d: scalar (%d,%v,%d,%d) != batch (%d,%v,%d,%d)",
				key, sv, sf, sc, sa, bv, bf, bc, ba)
		}
	}
}

// TestRangeScanBatchMatchesScalar pins the batched range scan — visit
// order, visited keys, cost, and access count — against the scalar
// reference walk, with ranges long enough to cross the mid-scan flush threshold.
func TestRangeScanBatchMatchesScalar(t *testing.T) {
	scalarTree, _ := New(8)
	batchTree, _ := New(8)
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = uint64(i) * 5
	}
	if err := scalarTree.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	if err := batchTree.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	scalarMem := newSwapMem(t)
	batchMem := newSwapMem(t)
	var b memmodel.Batcher
	for _, r := range [][2]uint64{{0, 99999}, {12345, 54321}, {7, 7}, {90, 10}} {
		var scalarKeys, batchKeys []uint64
		sc, sa := refRangeScan(scalarTree, r[0], r[1], scalarMem, func(k uint64) {
			scalarKeys = append(scalarKeys, k)
		})
		bc, ba := batchTree.RangeScanBatch(r[0], r[1], batchMem, &b, func(k uint64) {
			batchKeys = append(batchKeys, k)
		})
		if sc != bc || sa != ba {
			t.Fatalf("range [%d,%d]: scalar (%d,%d) != batch (%d,%d)", r[0], r[1], sc, sa, bc, ba)
		}
		if len(scalarKeys) != len(batchKeys) {
			t.Fatalf("range [%d,%d]: %d vs %d keys", r[0], r[1], len(scalarKeys), len(batchKeys))
		}
		for i := range scalarKeys {
			if scalarKeys[i] != batchKeys[i] {
				t.Fatalf("range [%d,%d]: key %d differs: %d vs %d", r[0], r[1], i, scalarKeys[i], batchKeys[i])
			}
		}
		if b.Len() != 0 {
			t.Fatal("Batcher not empty after RangeScanBatch")
		}
	}
}

// TestSearchBatchZeroAllocSteadyState pins the batched search loop at 0
// allocs/op once the Batcher buffer is warm.
func TestSearchBatchZeroAllocSteadyState(t *testing.T) {
	tr, _ := New(168)
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	if err := tr.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	mem := newSwapMem(t)
	var b memmodel.Batcher
	b.Grow(256)
	var key uint64
	tr.SearchBatch(0, mem, &b) // warm
	allocs := testing.AllocsPerRun(100, func() {
		key += 7919
		tr.SearchBatch(key%100000, mem, &b)
	})
	if allocs != 0 {
		t.Errorf("batched search: %.1f allocs/op, want 0", allocs)
	}
}

// access1 prices one read as a batch of one.
func access1(mem memmodel.Accessor, a uint64) params.Duration {
	return mem.AccessBatch([]memmodel.AccessOp{{Addr: a}})
}

// refSearch is the scalar reference walk SearchBatch is checked against:
// the same search, pricing each access as it is made.
func refSearch(t *Tree, key uint64, mem memmodel.Accessor) (found bool, cost params.Duration, accesses uint64) {
	n := t.root
	for n != nil {
		// Read the node header (key count, flags).
		cost += access1(mem, n.base)
		accesses++
		// Binary search over the key array; each probe is one read.
		lo, hi := 0, len(n.keys)
		for lo < hi {
			mid := (lo + hi) / 2
			cost += access1(mem, entryAddr(n, mid))
			accesses++
			switch {
			case n.keys[mid] == key:
				return true, cost, accesses
			case n.keys[mid] < key:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		if n.leaf() {
			return false, cost, accesses
		}
		// Read the child pointer and descend.
		cost += access1(mem, childPtrAddr(n, lo))
		accesses++
		n = n.children[lo]
	}
	return false, cost, accesses
}

// refSearchKV is the scalar reference walk for SearchKVBatch.
func refSearchKV(t *Tree, key uint64, mem memmodel.Accessor) (val uint64, found bool, cost params.Duration, accesses uint64) {
	n := t.root
	for n != nil {
		cost += access1(mem, n.base)
		accesses++
		lo, hi := 0, len(n.keys)
		for lo < hi {
			mid := (lo + hi) / 2
			cost += access1(mem, entryAddr(n, mid))
			accesses++
			switch {
			case n.keys[mid] == key:
				cost += access1(mem, entryAddr(n, mid)+16) // payload slot
				accesses++
				return n.vals[mid], true, cost, accesses
			case n.keys[mid] < key:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		if n.leaf() {
			return 0, false, cost, accesses
		}
		cost += access1(mem, childPtrAddr(n, lo))
		accesses++
		n = n.children[lo]
	}
	return 0, false, cost, accesses
}

// refRangeScan is the scalar reference walk for RangeScanBatch.
func refRangeScan(t *Tree, lo, hi uint64, mem memmodel.Accessor, fn func(uint64)) (cost params.Duration, accesses uint64) {
	if lo > hi {
		return 0, 0
	}
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		cost += access1(mem, n.base) // header
		accesses++
		// Find the first key >= lo by binary search (charged).
		start, hiIdx := 0, len(n.keys)
		for start < hiIdx {
			mid := (start + hiIdx) / 2
			cost += access1(mem, entryAddr(n, mid))
			accesses++
			if n.keys[mid] < lo {
				start = mid + 1
			} else {
				hiIdx = mid
			}
		}
		for i := start; ; i++ {
			if !n.leaf() {
				cost += access1(mem, childPtrAddr(n, i))
				accesses++
				rec(n.children[i])
			}
			if i >= len(n.keys) {
				return
			}
			cost += access1(mem, entryAddr(n, i))
			accesses++
			k := n.keys[i]
			if k > hi {
				return
			}
			if k >= lo {
				fn(k)
			}
		}
	}
	rec(t.root)
	return cost, accesses
}
