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

// Batcher accumulates the accesses of one logical unit of work — a
// b-tree node visit, a range-scan segment, a kernel pass — and prices
// them in one AccessBatch call. The zero value is ready to use; the op
// buffer is retained across Flush calls, so a reused Batcher's steady
// state allocates nothing. A Batcher must not be shared between goroutines;
// sharded sweeps give every shard its own.
type Batcher struct {
	ops []AccessOp
}

// Read records a load at address a.
func (b *Batcher) Read(a uint64) { b.ops = append(b.ops, AccessOp{Addr: a}) }

// Write records a store at address a.
func (b *Batcher) Write(a uint64) { b.ops = append(b.ops, AccessOp{Addr: a, Write: true}) }

// Add records an access.
func (b *Batcher) Add(a uint64, write bool) {
	b.ops = append(b.ops, AccessOp{Addr: a, Write: write})
}

// Len returns the number of buffered ops.
func (b *Batcher) Len() int { return len(b.ops) }

// Grow ensures capacity for at least n buffered ops, pre-sizing the
// buffer so 0-alloc steady state starts at the first batch.
func (b *Batcher) Grow(n int) {
	if cap(b.ops) < n {
		ops := make([]AccessOp, len(b.ops), n)
		copy(ops, b.ops)
		b.ops = ops
	}
}

// Flush prices the buffered ops through acc in record order, clears the
// buffer (retaining its capacity), and returns the total cost.
func (b *Batcher) Flush(acc Accessor) params.Duration {
	if len(b.ops) == 0 {
		return 0
	}
	d := acc.AccessBatch(b.ops)
	b.ops = b.ops[:0]
	return d
}
