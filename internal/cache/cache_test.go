package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func smallHierarchy(t *testing.T, sockets int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(sockets, Config{Sets: 4, Ways: 2, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Sets: 0, Ways: 1, LineSize: 64}).Validate(); err == nil {
		t.Error("zero sets accepted")
	}
	if err := (Config{Sets: 1, Ways: 1, LineSize: 48}).Validate(); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if _, err := NewHierarchy(0, DefaultConfig()); err == nil {
		t.Error("zero sockets accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := smallHierarchy(t, 2)
	r, err := h.Access(0, 0x1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit || r.State != Exclusive || r.Probes != 0 {
		t.Errorf("cold read = %+v, want E miss with no probes", r)
	}
	r, _ = h.Access(0, 0x1008, false) // same line
	if !r.Hit {
		t.Error("second read of the line missed")
	}
	if h.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", h.HitRate())
	}
}

func TestMESITransitions(t *testing.T) {
	h := smallHierarchy(t, 2)
	a := addr.Phys(0x2000)

	// Socket 0 reads -> E; socket 1 reads -> both S with one probe.
	h.Access(0, a, false)
	r, _ := h.Access(1, a, false)
	if r.Probes != 1 || r.State != Shared {
		t.Errorf("second reader = %+v, want 1 probe, S", r)
	}
	if h.StateIn(0, a) != Shared {
		t.Errorf("first reader downgraded to %v, want S", h.StateIn(0, a))
	}

	// Socket 0 writes: S->M upgrade invalidating socket 1.
	r, _ = h.Access(0, a, true)
	if !r.Hit || r.State != Modified || r.Probes != 1 {
		t.Errorf("upgrade = %+v, want hit, M, 1 probe", r)
	}
	if h.StateIn(1, a) != Invalid {
		t.Error("sharer not invalidated on upgrade")
	}

	// Socket 1 reads back: probe hits M at socket 0, forces writeback,
	// both end Shared.
	r, _ = h.Access(1, a, false)
	if r.Probes != 1 || r.Writebacks != 1 || r.State != Shared {
		t.Errorf("read of modified = %+v, want probe+writeback, S", r)
	}
	if h.StateIn(0, a) != Shared {
		t.Error("writer not downgraded to S")
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	h := smallHierarchy(t, 2)
	a := addr.Phys(0x40)
	h.Access(0, a, false) // E
	r, _ := h.Access(0, a, true)
	if !r.Hit || r.Probes != 0 || r.State != Modified {
		t.Errorf("E->M upgrade = %+v, want silent hit", r)
	}
}

func TestWriteMissInvalidatesModifiedOwner(t *testing.T) {
	h := smallHierarchy(t, 2)
	a := addr.Phys(0x80)
	h.Access(0, a, true) // socket 0 holds M
	r, _ := h.Access(1, a, true)
	if r.Hit || r.Probes != 1 || r.Writebacks != 1 || r.State != Modified {
		t.Errorf("write miss over M = %+v", r)
	}
	if h.StateIn(0, a) != Invalid {
		t.Error("old owner still holds the line")
	}
}

func TestEvictionLRUAndVictim(t *testing.T) {
	h := smallHierarchy(t, 1) // 4 sets × 2 ways
	// Three lines mapping to set 0: 0, 4*64=256, 512.
	h.Access(0, 0, true) // M
	h.Access(0, 256, false)
	r, _ := h.Access(0, 512, false) // evicts LRU = line 0 (dirty)
	if !r.VictimDirty || r.Victim != 0 || r.Writebacks != 1 {
		t.Errorf("eviction = %+v, want dirty victim line 0", r)
	}
	if h.StateIn(0, 0) != Invalid {
		t.Error("victim still resident")
	}
	// Clean eviction reports the victim but no writeback.
	r, _ = h.Access(0, 768, false) // evicts 256 (clean, LRU)
	if r.VictimDirty || r.Victim != 256 || r.Writebacks != 0 {
		t.Errorf("clean eviction = %+v", r)
	}
}

func TestVictimKeepsNodePrefix(t *testing.T) {
	h := smallHierarchy(t, 1)
	remote := addr.Phys(0x100).WithNode(7)
	h.Access(0, remote, true)
	// Fill the set until the remote line is evicted.
	var victim addr.Phys
	for i := 1; i <= 2; i++ {
		r, _ := h.Access(0, addr.Phys(0x100+uint64(i)*256), false)
		if r.VictimDirty {
			victim = r.Victim
		}
	}
	if victim.Node() != 7 {
		t.Errorf("victim = %v, lost its node prefix", victim)
	}
}

func TestFlushAll(t *testing.T) {
	h := smallHierarchy(t, 2)
	h.Access(0, 0x000, true)
	h.Access(0, 0x100, true)
	h.Access(1, 0x200, false)
	if dirty := h.FlushAll(); dirty != 2 {
		t.Errorf("FlushAll wrote back %d lines, want 2", dirty)
	}
	for _, a := range []addr.Phys{0x000, 0x100} {
		if h.StateIn(0, a) != Invalid {
			t.Errorf("line %v survived flush", a)
		}
	}
	// After the flush, re-reads miss (read-only phase refills cleanly).
	r, _ := h.Access(1, 0x200, false)
	if r.Hit {
		t.Error("flushed line hit")
	}
}

func TestInvalidSocket(t *testing.T) {
	h := smallHierarchy(t, 2)
	if _, err := h.Access(2, 0, false); err == nil {
		t.Error("socket beyond domain accepted")
	}
	if _, err := h.Access(-1, 0, false); err == nil {
		t.Error("negative socket accepted")
	}
}

// TestSingleWriterInvariant checks the MESI invariant: at most one socket
// holds a line in M or E, and M/E never coexists with S elsewhere.
func TestSingleWriterInvariant(t *testing.T) {
	h := smallHierarchy(t, 4)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			socket := int(op) % 4
			line := addr.Phys((uint64(op)>>2)%16) * 64
			write := op&0x8000 != 0
			if _, err := h.Access(socket, line, write); err != nil {
				return false
			}
			// Check the invariant on the touched line.
			owners, sharers := 0, 0
			for s := 0; s < 4; s++ {
				switch h.StateIn(s, line) {
				case Modified, Exclusive:
					owners++
				case Shared:
					sharers++
				}
			}
			if owners > 1 || (owners == 1 && sharers > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if s.String() != want {
			t.Errorf("%d renders %q", s, s.String())
		}
	}
}

// refLine, refSocket and refHierarchy are the original array-of-structs
// cache: every way one struct of tag, state and LRU stamp. They are the
// oracle the structure-of-arrays sets must match result for result.
type refLine struct {
	tag   addr.Phys
	state State
	lru   uint64
}

type refSocket struct {
	cfg   Config
	lines []refLine
	clock uint64
}

func (c *refSocket) setOf(tag addr.Phys) []refLine {
	idx := (uint64(tag) / c.cfg.LineSize) % uint64(c.cfg.Sets)
	ways := uint64(c.cfg.Ways)
	return c.lines[idx*ways : idx*ways+ways]
}

func (c *refSocket) find(tag addr.Phys) int {
	set := c.setOf(tag)
	for w := range set {
		if set[w].state != Invalid && set[w].tag == tag {
			return w
		}
	}
	return -1
}

func (c *refSocket) victim(tag addr.Phys) int {
	set := c.setOf(tag)
	best, bestLRU := -1, ^uint64(0)
	for w := range set {
		if set[w].state == Invalid {
			return w
		}
		if set[w].lru < bestLRU {
			best, bestLRU = w, set[w].lru
		}
	}
	return best
}

func (c *refSocket) touch(tag addr.Phys, w int) {
	c.clock++
	c.setOf(tag)[w].lru = c.clock
}

type refHierarchy struct {
	cfg                                                  Config
	sockets                                              []*refSocket
	Accesses, Hits, Misses, Probes, Writebacks, Installs uint64
}

func newRefHierarchy(sockets int, cfg Config) *refHierarchy {
	h := &refHierarchy{cfg: cfg}
	for i := 0; i < sockets; i++ {
		h.sockets = append(h.sockets, &refSocket{cfg: cfg, lines: make([]refLine, cfg.Sets*cfg.Ways)})
	}
	return h
}

func (h *refHierarchy) Access(socket int, a addr.Phys, write bool) (Result, error) {
	if socket < 0 || socket >= len(h.sockets) {
		return Result{}, fmt.Errorf("cache: socket %d outside domain of %d", socket, len(h.sockets))
	}
	h.Accesses++
	tag := a.Line(h.cfg.LineSize)
	own := h.sockets[socket]
	var res Result
	if w := own.find(tag); w >= 0 {
		set := own.setOf(tag)
		st := set[w].state
		if !write || st == Modified {
			res.Hit = true
			res.State = st
			own.touch(tag, w)
			h.Hits++
			return res, nil
		}
		if st == Exclusive {
			set[w].state = Modified
			own.touch(tag, w)
			res.Hit = true
			res.State = Modified
			h.Hits++
			return res, nil
		}
		res.Probes = h.invalidateOthers(socket, tag)
		set[w].state = Modified
		own.touch(tag, w)
		res.Hit = true
		res.State = Modified
		h.Hits++
		h.Probes += uint64(res.Probes)
		return res, nil
	}
	h.Misses++
	sharers := 0
	for s, c := range h.sockets {
		if s == socket {
			continue
		}
		if w := c.find(tag); w >= 0 {
			set := c.setOf(tag)
			res.Probes++
			if write {
				if set[w].state == Modified {
					res.Writebacks++
				}
				set[w].state = Invalid
			} else {
				if set[w].state == Modified {
					res.Writebacks++
				}
				set[w].state = Shared
				sharers++
			}
		}
	}
	w := own.victim(tag)
	set := own.setOf(tag)
	if set[w].state != Invalid {
		res.Victim = set[w].tag
		if set[w].state == Modified {
			res.Writebacks++
			res.VictimDirty = true
		}
	}
	newState := Exclusive
	if write {
		newState = Modified
	} else if sharers > 0 {
		newState = Shared
	}
	set[w] = refLine{tag: tag, state: newState}
	own.touch(tag, w)
	res.State = newState
	h.Probes += uint64(res.Probes)
	h.Writebacks += uint64(res.Writebacks)
	return res, nil
}

func (h *refHierarchy) invalidateOthers(socket int, tag addr.Phys) int {
	probes := 0
	for s, c := range h.sockets {
		if s == socket {
			continue
		}
		if w := c.find(tag); w >= 0 {
			c.setOf(tag)[w].state = Invalid
			probes++
		}
	}
	return probes
}

func (h *refHierarchy) Install(socket int, a addr.Phys) (Result, error) {
	if socket < 0 || socket >= len(h.sockets) {
		return Result{}, fmt.Errorf("cache: socket %d outside domain of %d", socket, len(h.sockets))
	}
	tag := a.Line(h.cfg.LineSize)
	for _, c := range h.sockets {
		if c.find(tag) >= 0 {
			return Result{Hit: true, State: Shared}, nil
		}
	}
	own := h.sockets[socket]
	w := own.victim(tag)
	set := own.setOf(tag)
	var res Result
	if set[w].state != Invalid {
		res.Victim = set[w].tag
		if set[w].state == Modified {
			res.Writebacks++
			res.VictimDirty = true
			h.Writebacks++
		}
	}
	set[w] = refLine{tag: tag, state: Exclusive}
	own.touch(tag, w)
	res.State = Exclusive
	h.Installs++
	return res, nil
}

func (h *refHierarchy) Present(a addr.Phys) bool {
	tag := a.Line(h.cfg.LineSize)
	for _, c := range h.sockets {
		if c.find(tag) >= 0 {
			return true
		}
	}
	return false
}

func (h *refHierarchy) StateIn(socket int, a addr.Phys) State {
	tag := a.Line(h.cfg.LineSize)
	if w := h.sockets[socket].find(tag); w >= 0 {
		return h.sockets[socket].setOf(tag)[w].state
	}
	return Invalid
}

func (h *refHierarchy) FlushAll() int {
	dirty := 0
	for _, c := range h.sockets {
		for i := range c.lines {
			if c.lines[i].state == Modified {
				dirty++
			}
			c.lines[i].state = Invalid
		}
	}
	h.Writebacks += uint64(dirty)
	return dirty
}

// oracleSockets is the paper's node: four sockets keeping MESI among
// themselves.
const oracleSockets = 4

// checkOracle replays an operation stream decoded from data on a
// Hierarchy and on the array-of-structs oracle and fails at the first
// divergence. The first byte picks a tiny geometry (1–3 sets × 1–4
// ways) so evictions and LRU choices happen every few operations; each
// further 3-byte group is one operation on one of 12 lines spread over
// the local range and two node prefixes, since tags keep the prefix. Socket numbers run
// one past the domain so the rejection path is compared too.
func checkOracle(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	cfg := Config{Sets: 1 + int(data[0])%3, Ways: 1 + int(data[0]/3)%4, LineSize: 64}
	h, err := NewHierarchy(oracleSockets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefHierarchy(oracleSockets, cfg)
	for i := 1; i+3 <= len(data); i += 3 {
		op, socket, pick := data[i]%8, int(data[i+1])%(oracleSockets+1), data[i+2]%12
		a := addr.Phys(uint64(pick%4)*64 + uint64(data[i+2]>>4))
		if node := addr.NodeID(pick / 4); node > 0 {
			a = a.WithNode(node)
		}
		stateSocket := socket % oracleSockets
		switch op {
		case 0, 1, 2, 3: // loads and stores dominate, as in a run
			write := op >= 2
			got, gerr := h.Access(socket, a, write)
			want, werr := ref.Access(socket, a, write)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("op %d: Access(%d, %v, %v) = %+v, %v; oracle %+v, %v", i/3, socket, a, write, got, gerr, want, werr)
			}
		case 4:
			got, gerr := h.Install(socket, a)
			want, werr := ref.Install(socket, a)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("op %d: Install(%d, %v) = %+v, %v; oracle %+v, %v", i/3, socket, a, got, gerr, want, werr)
			}
		case 5:
			if got, want := h.FlushAll(), ref.FlushAll(); got != want {
				t.Fatalf("op %d: FlushAll = %d; oracle %d", i/3, got, want)
			}
		case 6:
			if got, want := h.StateIn(stateSocket, a), ref.StateIn(stateSocket, a); got != want {
				t.Fatalf("op %d: StateIn(%d, %v) = %v; oracle %v", i/3, stateSocket, a, got, want)
			}
		case 7:
			if got, want := h.Present(a), ref.Present(a); got != want {
				t.Fatalf("op %d: Present(%v) = %v; oracle %v", i/3, a, got, want)
			}
		}
	}
	got := [6]uint64{h.Accesses, h.Hits, h.Misses, h.Probes, h.Writebacks, h.Installs}
	want := [6]uint64{ref.Accesses, ref.Hits, ref.Misses, ref.Probes, ref.Writebacks, ref.Installs}
	if got != want {
		t.Fatalf("counters (accesses, hits, misses, probes, writebacks, installs) = %v; oracle %v", got, want)
	}
}

func TestHierarchyMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+3*2000)
		rng.Read(data)
		checkOracle(t, data)
	}
}

func FuzzHierarchyOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 0, 0, 1, 2, 1, 1, 0, 2, 5, 3, 3, 9, 6, 1, 5})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 1+3*64)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkOracle)
}
