// Package btree implements the database-style index of the paper's
// Section V-B: a B-tree with a parameterizable number of children per
// node, laid out over a byte-addressed memory whose accesses are priced
// by a memmodel.Accessor. Key and structural data live in ordinary Go
// memory (function), while every search walks the modeled layout and
// charges each header read, key probe, and child-pointer read to the
// accessor (timing) — so the same search can be priced under local
// memory, the prototype's remote memory, or remote swap.
//
// Layout follows database practice: each node owns a fixed-size record
// (header + max-keys entries of 24 bytes: key, child pointer, payload
// pointer); the allocator never lets a node straddle a page boundary
// unless the node is bigger than a page. The fanout at which a node
// exactly fills a 4 KiB page (≈168 children) is the optimum Figure 9
// finds for remote swap.
package btree

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/memmodel"
	"repro/internal/params"
)

// Geometry constants of the modeled node record.
const (
	// EntrySize is the bytes per key entry: 8 key + 8 child pointer +
	// 8 payload pointer.
	EntrySize = 24
	// HeaderSize is the per-node metadata record.
	HeaderSize = 16
)

// NodeBytes returns the modeled size of a node with the given maximum
// child count.
func NodeBytes(maxChildren int) uint64 {
	return HeaderSize + uint64(maxChildren-1)*EntrySize
}

// layout is a bump allocator that avoids gratuitous page straddling.
type layout struct {
	next uint64
}

// alloc returns the base address for a node of the given size.
func (l *layout) alloc(size uint64) uint64 {
	const page = params.PageSize
	base := l.next
	if size <= page {
		// If the node would cross a page boundary, start it on the next
		// page instead: a one-page node should cost one fault.
		if base/page != (base+size-1)/page {
			base = (base/page + 1) * page
		}
	} else if base%page != 0 {
		// Multi-page nodes start page-aligned.
		base = (base/page + 1) * page
	}
	l.next = base + size
	return base
}

type node struct {
	base     uint64
	keys     []uint64
	vals     []uint64 // payload per key (the entry's payload-pointer slot)
	children []*node
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// Tree is the index.
type Tree struct {
	maxChildren int
	root        *node
	lay         layout

	// Nodes counts allocated nodes; Size counts stored keys.
	Nodes int
	Size  int
}

// New creates an empty tree with the given maximum children per node
// (fanout). The minimum useful fanout is 3 (2 keys).
func New(maxChildren int) (*Tree, error) {
	if maxChildren < 3 {
		return nil, fmt.Errorf("btree: fanout %d < 3", maxChildren)
	}
	return &Tree{maxChildren: maxChildren}, nil
}

// MaxChildren returns the fanout.
func (t *Tree) MaxChildren() int { return t.maxChildren }

// maxKeys is the per-node key capacity.
func (t *Tree) maxKeys() int { return t.maxChildren - 1 }

func (t *Tree) newNode() *node {
	t.Nodes++
	return &node{base: t.lay.alloc(NodeBytes(t.maxChildren))}
}

// FootprintBytes returns the top of the modeled address space — the
// memory the index occupies, which is what has to fit (or not) in local
// memory under the swap configurations.
func (t *Tree) FootprintBytes() uint64 { return t.lay.next }

// Depth returns the tree height in levels (0 for an empty tree).
func (t *Tree) Depth() int {
	d, n := 0, t.root
	for n != nil {
		d++
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	return d
}

// entryAddr returns the modeled address of entry i in a node.
func entryAddr(n *node, i int) uint64 {
	return n.base + HeaderSize + uint64(i)*EntrySize
}

// childPtrAddr returns the modeled address of child pointer i. Child i
// sits with entry i; the last child (index == len(keys)) reuses the last
// entry's payload slot, keeping the node inside its record.
func childPtrAddr(n *node, i int) uint64 {
	if i >= len(n.keys) {
		if i == 0 {
			return n.base + HeaderSize + 8
		}
		return entryAddr(n, len(n.keys)-1) + 16
	}
	return entryAddr(n, i) + 8
}

// SearchBatch looks a key up, charging every modeled memory access to
// mem: one header read per visited node, one read per binary-search
// probe, and one child-pointer read per descent. The walk records the
// accesses into b and prices the whole op sequence in one AccessBatch
// call. b is a scratch buffer the caller reuses across searches (it
// must be empty between calls). It returns whether the key exists, the
// accumulated memory time, and the number of accesses performed.
func (t *Tree) SearchBatch(key uint64, mem memmodel.Accessor, b *memmodel.Batcher) (found bool, cost params.Duration, accesses uint64) {
	n := t.root
	for n != nil {
		b.Read(n.base)
		lo, hi := 0, len(n.keys)
		for lo < hi {
			mid := (lo + hi) / 2
			b.Read(entryAddr(n, mid))
			switch {
			case n.keys[mid] == key:
				accesses = uint64(b.Len())
				return true, b.Flush(mem), accesses
			case n.keys[mid] < key:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		if n.leaf() {
			accesses = uint64(b.Len())
			return false, b.Flush(mem), accesses
		}
		b.Read(childPtrAddr(n, lo))
		n = n.children[lo]
	}
	accesses = uint64(b.Len())
	return false, b.Flush(mem), accesses
}

// SearchKVBatch is SearchBatch returning the key's payload word as well
// (charging one extra read for the payload slot on a hit).
func (t *Tree) SearchKVBatch(key uint64, mem memmodel.Accessor, b *memmodel.Batcher) (val uint64, found bool, cost params.Duration, accesses uint64) {
	n := t.root
	for n != nil {
		b.Read(n.base)
		lo, hi := 0, len(n.keys)
		for lo < hi {
			mid := (lo + hi) / 2
			b.Read(entryAddr(n, mid))
			switch {
			case n.keys[mid] == key:
				b.Read(entryAddr(n, mid) + 16) // payload slot
				accesses = uint64(b.Len())
				return n.vals[mid], true, b.Flush(mem), accesses
			case n.keys[mid] < key:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		if n.leaf() {
			accesses = uint64(b.Len())
			return 0, false, b.Flush(mem), accesses
		}
		b.Read(childPtrAddr(n, lo))
		n = n.children[lo]
	}
	accesses = uint64(b.Len())
	return 0, false, b.Flush(mem), accesses
}

// Lookup returns a key's payload word without charging an accessor.
func (t *Tree) Lookup(key uint64) (uint64, bool) {
	n := t.root
	for n != nil {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			return n.vals[i], true
		}
		if n.leaf() {
			return 0, false
		}
		n = n.children[i]
	}
	return 0, false
}

// rangeScanFlushThreshold bounds RangeScanBatch's buffered ops so a
// whole-tree scan doesn't grow the Batcher without limit. Batch
// boundaries never change costs or accessor state, so the threshold is
// purely a memory knob.
const rangeScanFlushThreshold = 4096

// RangeScanBatch visits every key in [lo, hi] in ascending order,
// calling fn for each and charging the modeled memory accesses to mem:
// one header read per visited node, one read per inspected key, and one
// pointer read per descended child. Range queries are the other
// database operation the paper's short-term plan names; their
// sequential page touch pattern is the friendliest case for both swap
// and the RMC's prefetcher. The accesses are recorded into b and priced
// in AccessBatch calls of up to rangeScanFlushThreshold ops. b must be
// empty between calls.
func (t *Tree) RangeScanBatch(lo, hi uint64, mem memmodel.Accessor, b *memmodel.Batcher, fn func(uint64)) (cost params.Duration, accesses uint64) {
	if lo > hi {
		return 0, 0
	}
	read := func(a uint64) {
		b.Read(a)
		accesses++
		if b.Len() >= rangeScanFlushThreshold {
			cost += b.Flush(mem)
		}
	}
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		read(n.base) // header
		start, hiIdx := 0, len(n.keys)
		for start < hiIdx {
			mid := (start + hiIdx) / 2
			read(entryAddr(n, mid))
			if n.keys[mid] < lo {
				start = mid + 1
			} else {
				hiIdx = mid
			}
		}
		for i := start; ; i++ {
			if !n.leaf() {
				read(childPtrAddr(n, i))
				rec(n.children[i])
			}
			if i >= len(n.keys) {
				return
			}
			read(entryAddr(n, i))
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
	cost += b.Flush(mem)
	return cost, accesses
}

// Contains reports membership without charging an accessor (function
// only; used by tests and reference checks).
func (t *Tree) Contains(key uint64) bool {
	n := t.root
	for n != nil {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
	return false
}

// Insert adds a key (duplicates are ignored), splitting nodes as needed.
func (t *Tree) Insert(key uint64) { t.InsertKV(key, 0) }

// InsertKV adds a key with a payload word (the entry layout's payload-
// pointer slot). Inserting an existing key updates its payload.
func (t *Tree) InsertKV(key, val uint64) {
	if t.root == nil {
		t.root = t.newNode()
		t.root.keys = append(t.root.keys, key)
		t.root.vals = append(t.root.vals, val)
		t.Size++
		return
	}
	if promoted, pval, right, split := t.insert(t.root, key, val); split {
		newRoot := t.newNode()
		newRoot.keys = []uint64{promoted}
		newRoot.vals = []uint64{pval}
		newRoot.children = []*node{t.root, right}
		t.root = newRoot
	}
}

// insert descends, splitting overflowing nodes on the way back up.
func (t *Tree) insert(n *node, key, val uint64) (promoted, pval uint64, right *node, split bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		n.vals[i] = val // update in place
		return 0, 0, nil, false
	}
	if n.leaf() {
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		t.Size++
	} else {
		p, pv, r, s := t.insert(n.children[i], key, val)
		if s {
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = p
			n.vals = append(n.vals, 0)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = pv
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i+1] = r
		}
	}
	if len(n.keys) <= t.maxKeys() {
		return 0, 0, nil, false
	}
	return t.split(n)
}

// split divides an overflowing node around its median.
func (t *Tree) split(n *node) (promoted, pval uint64, right *node, split bool) {
	mid := len(n.keys) / 2
	promoted, pval = n.keys[mid], n.vals[mid]
	right = t.newNode()
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.vals = append(right.vals, n.vals[mid+1:]...)
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	if !n.leaf() {
		right.children = append(right.children, n.children[mid+1:]...)
		n.children = n.children[:mid+1]
	}
	return promoted, pval, right, true
}

// BulkLoad builds the paper's population: a minimal-height tree where
// every level but the last is full and the last level fills from the
// left. Keys may arrive unsorted; duplicates are rejected.
func (t *Tree) BulkLoad(keys []uint64) error {
	if t.root != nil {
		return fmt.Errorf("btree: BulkLoad into non-empty tree")
	}
	if len(keys) == 0 {
		return nil
	}
	sorted := make([]uint64, len(keys))
	copy(sorted, keys)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return fmt.Errorf("btree: duplicate key %d in BulkLoad", sorted[i])
		}
	}
	depth := 1
	for capacityAtDepth(t.maxChildren, depth) < uint64(len(sorted)) {
		depth++
	}
	t.root = t.build(sorted, depth)
	t.Size = len(sorted)
	return nil
}

// capacityAtDepth returns the key capacity of a full tree: m^d − 1,
// saturating to avoid overflow.
func capacityAtDepth(m, d int) uint64 {
	cap := uint64(1)
	for i := 0; i < d; i++ {
		next := cap * uint64(m)
		if next/uint64(m) != cap { // overflow: effectively infinite
			return ^uint64(0)
		}
		cap = next
	}
	return cap - 1
}

// build packs sorted keys into a subtree of exactly the given depth,
// filling left subtrees completely so the last level fills left to
// right.
func (t *Tree) build(keys []uint64, depth int) *node {
	n := t.newNode()
	if depth == 1 {
		n.keys = append(n.keys, keys...)
		n.vals = make([]uint64, len(n.keys))
		return n
	}
	subCap := capacityAtDepth(t.maxChildren, depth-1)
	for {
		if uint64(len(keys)) <= subCap || len(n.keys) == t.maxKeys() {
			// Everything left fits in the final child.
			n.children = append(n.children, t.build(keys, depth-1))
			return n
		}
		n.children = append(n.children, t.build(keys[:subCap], depth-1))
		n.keys = append(n.keys, keys[subCap])
		n.vals = append(n.vals, 0)
		keys = keys[subCap+1:]
	}
}

// Walk calls fn for every key in ascending order.
func (t *Tree) Walk(fn func(uint64)) {
	var rec func(*node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		for i, k := range n.keys {
			if !n.leaf() {
				rec(n.children[i])
			}
			fn(k)
		}
		if !n.leaf() {
			rec(n.children[len(n.keys)])
		}
	}
	rec(t.root)
}

// CheckInvariants verifies ordering, uniform leaf depth, and that node
// records stay within their modeled layout. Degenerate right-edge nodes
// (fewer than the B-tree minimum of keys) are legal here: the paper's
// left-filled population produces them by design.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return nil
	}
	var leafDepth = -1
	var count int
	var prev *uint64
	var rec func(n *node, depth int) error
	rec = func(n *node, depth int) error {
		if len(n.keys) > t.maxKeys() {
			return fmt.Errorf("btree: node with %d keys exceeds capacity %d", len(n.keys), t.maxKeys())
		}
		if len(n.vals) != len(n.keys) {
			return fmt.Errorf("btree: node with %d keys has %d payloads", len(n.keys), len(n.vals))
		}
		if !n.leaf() && len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: node with %d keys has %d children", len(n.keys), len(n.children))
		}
		if n.leaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
		}
		for i, k := range n.keys {
			if !n.leaf() {
				if err := rec(n.children[i], depth+1); err != nil {
					return err
				}
			}
			if prev != nil && *prev >= k {
				return fmt.Errorf("btree: keys out of order: %d then %d", *prev, k)
			}
			kk := k
			prev = &kk
			count++
		}
		if !n.leaf() {
			return rec(n.children[len(n.keys)], depth+1)
		}
		return nil
	}
	if err := rec(t.root, 1); err != nil {
		return err
	}
	if count != t.Size {
		return fmt.Errorf("btree: Size %d but %d keys reachable", t.Size, count)
	}
	return nil
}
