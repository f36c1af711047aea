package memmodel

import (
	"fmt"
	"sort"

	"repro/internal/params"
)

// Stripe is one address interval backed by one memory configuration.
type Stripe struct {
	// Start and Size delimit the interval [Start, Start+Size).
	Start, Size uint64
	// Acc prices accesses falling in the interval.
	Acc Accessor
}

// Striped prices accesses by which backing the address falls in — the
// model of a real region whose memory spans the local node and several
// donors at different hop distances. Where the uniform Remote accessor
// assumes one distance for everything, Striped reflects the placement
// the reservation protocol actually produced.
type Striped struct {
	stripes []Stripe
	// constCost caches the per-access price of stripes backed by
	// constant-latency accessors (Local, Remote), so pricing them needs
	// no interface call at all; -1 marks a stripe that must be priced
	// through its Accessor (it may carry state, like a Meter or Swap).
	constCost []params.Duration
	// Unmapped counts accesses that hit no stripe; they are charged the
	// full-diameter remote round trip, pessimistically.
	Unmapped uint64
	fallback params.Duration
	p        params.Params
}

// NewStriped builds the model. Stripes must not overlap.
func NewStriped(p params.Params, stripes []Stripe) (*Striped, error) {
	if len(stripes) == 0 {
		return nil, fmt.Errorf("memmodel: striped model with no stripes")
	}
	s := make([]Stripe, len(stripes))
	copy(s, stripes)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	cc := make([]params.Duration, len(s))
	for i, st := range s {
		if st.Size == 0 || st.Acc == nil {
			return nil, fmt.Errorf("memmodel: stripe %d empty or accessor-less", i)
		}
		if i > 0 && st.Start < s[i-1].Start+s[i-1].Size {
			return nil, fmt.Errorf("memmodel: stripes %d and %d overlap", i-1, i)
		}
		switch acc := st.Acc.(type) {
		case Local:
			cc[i] = acc.P.DRAMLatency
		case Remote:
			cc[i] = acc.P.RemoteRoundTrip(acc.Hops)
		default:
			cc[i] = -1
		}
	}
	diameter := p.MeshWidth + p.MeshHeight - 2
	return &Striped{stripes: s, constCost: cc, fallback: p.RemoteRoundTrip(diameter), p: p}, nil
}

// find returns the index of the stripe containing a, or -1.
func (s *Striped) find(a uint64) int {
	lo, hi := 0, len(s.stripes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.stripes[mid].Start+s.stripes[mid].Size > a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(s.stripes) && a >= s.stripes[lo].Start {
		return lo
	}
	return -1
}

// AccessBatch implements Accessor. Constant-latency stripes are priced
// from the cached per-stripe cost, skipping their interface entirely;
// a stateful stripe prices its op as a one-op sub-slice of ops, so the
// loop allocates nothing.
func (s *Striped) AccessBatch(ops []AccessOp) params.Duration {
	var total params.Duration
	var unmapped uint64
	for k, op := range ops {
		i := s.find(op.Addr)
		if i < 0 {
			unmapped++
			total += s.fallback
			continue
		}
		if c := s.constCost[i]; c >= 0 {
			total += c
			continue
		}
		total += s.stripes[i].Acc.AccessBatch(ops[k : k+1])
	}
	s.Unmapped += unmapped
	return total
}

// Name implements Accessor.
func (s *Striped) Name() string { return "region layout" }

// Stripes returns the model's intervals in address order.
func (s *Striped) Stripes() []Stripe {
	out := make([]Stripe, len(s.stripes))
	copy(out, s.stripes)
	return out
}
