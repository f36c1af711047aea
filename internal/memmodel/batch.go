package memmodel

import "repro/internal/params"

// Batches are the macro layer's only pricing path. At paper scale the
// hot producers (b-tree searches, PARSEC-class kernels, database
// queries) make hundreds of millions of accesses; pricing them one
// virtual call at a time lets interface dispatch and per-access
// bookkeeping dominate the run. Accessor.AccessBatch prices a whole op
// sequence in one tight loop over the concrete model type, and the
// common compositions (LineCached→Striped, Swap over its page cache)
// never make an interface call per access. The scalar reference model
// in batch_test.go is the oracle the batched models are checked
// against.

// AccessOp is one access in a batch.
type AccessOp struct {
	// Addr is the byte address accessed.
	Addr uint64
	// Write marks stores.
	Write bool
}

// noPage is the repeat-page rule's "page of the previous op" before a
// batch's first op; no page or line number, an address divided by at
// least 64, reaches it.
//
// Swap and LineCached apply the repeat-page rule: a read of the page
// (line) the op just before it in the batch fell on is a hit on the LRU
// head, so the loop charges the hit latency without calling Touch, and
// settles the skipped hits into PageCache.Hits once per batch. The rule
// is exact: after any Touch(p), hit or fault, p is the MRU head, and a
// read re-touch of the head changes nothing but the hit count, so
// costs, eviction order, dirty bits and every counter stay what one
// Touch per op gives. Writes always go through Touch (they set the
// dirty bit), and so does the first op of every batch.
const noPage = ^uint64(0)

// Batcher is the retained op buffer of one producer — a b-tree search,
// a range-scan segment, a trace replay, a database query. The producer
// borrows the buffer with Lend, appends its ops to the returned slice in
// a local variable (so the hot walk keeps the slice header in registers
// instead of loading and storing it through a pointer per op), and
// hands it back with Price, which prices the ops in one AccessBatch call
// and keeps the buffer, grown capacity included, for the next Lend. The
// zero value is ready to use, and a reused Batcher's steady state
// allocates nothing. A Batcher must not be shared between goroutines;
// sharded sweeps give every shard its own.
type Batcher struct {
	ops []AccessOp
}

// Lend returns the retained buffer, emptied, for the caller to append
// ops to. The caller owns it until it passes it back to Price; one
// Batcher lends one buffer at a time.
func (b *Batcher) Lend() []AccessOp { return b.ops[:0] }

// Grow ensures the retained buffer can hold at least n ops, pre-sizing
// it so 0-alloc steady state starts at the first batch.
func (b *Batcher) Grow(n int) {
	if cap(b.ops) < n {
		b.ops = make([]AccessOp, 0, n)
	}
}

// Price prices ops, a buffer from Lend with the caller's ops appended,
// through acc in order, takes the buffer back for the next Lend, and
// returns the total cost.
func (b *Batcher) Price(ops []AccessOp, acc Accessor) params.Duration {
	b.ops = ops[:0]
	if len(ops) == 0 {
		return 0
	}
	return acc.AccessBatch(ops)
}
