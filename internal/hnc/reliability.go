package hnc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/addr"
	"repro/internal/ht"
)

// The paper lists "concerns related to communication reliability and
// security" among the components a full deployment needs but does not
// describe. This file supplies the transport-integrity half: a CRC over
// each frame's routing header and payload, and per-peer sequence
// tracking that detects dropped or reordered frames. The RMC protocol
// itself stays simple — integrity failures surface as counted, checkable
// events rather than silent corruption.

// Checksum computes the frame's integrity word: the IEEE CRC-32 of a
// 32-byte little-endian header image — (Src | Dst<<16 | Cmd<<32 |
// SrcUnit<<40 | SrcTag<<48), Seq, Addr, and Count with Posted in bit 63
// — followed by the packet's data. The image is never materialized:
// the four header words fold straight into the CRC, and the data runs
// eight bytes per step, with slicing-by-8 tables built at init. It is
// allocation-free, so sealing and verifying pooled frames stays off the
// GC entirely.
func (f Frame) Checksum() uint32 {
	p := f.Payload
	// The Posted flag shares the Count word: an in-flight flip would
	// silently change completion semantics, so it must be covered too.
	cw := uint64(p.Count)
	if p.Posted {
		cw |= 1 << 63
	}
	crc := ^uint32(0)
	crc = crcWord(crc, uint64(f.Src)|uint64(f.Dst)<<16|uint64(p.Cmd)<<32|uint64(p.SrcUnit)<<40|uint64(p.SrcTag)<<48)
	crc = crcWord(crc, f.Seq)
	crc = crcWord(crc, uint64(p.Addr))
	crc = crcWord(crc, cw)
	data := p.Data
	for len(data) >= 8 {
		crc = crcWord(crc, binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	for _, b := range data {
		crc = crcSlice8[0][byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

// crcSlice8 holds the slicing-by-8 tables of the IEEE polynomial: entry
// [k][b] is the CRC register contribution of byte b followed by k zero
// bytes. Row 0 is crc32.IEEETable itself. The tables are built here at
// init rather than taken from hash/crc32 at run time: crc32.Update lets
// its slice argument escape and builds its own slicing table lazily on
// first use, so either would put an allocation on the seal/verify path.
var crcSlice8 [8][256]uint32

func init() {
	crcSlice8[0] = *crc32.IEEETable
	for i := 0; i < 256; i++ {
		crc := crcSlice8[0][i]
		for k := 1; k < 8; k++ {
			crc = crcSlice8[0][byte(crc)] ^ (crc >> 8)
			crcSlice8[k][i] = crc
		}
	}
}

// crcWord advances an (inverted) CRC register over the eight
// little-endian bytes of w in one slicing-by-8 step: the register folds
// into the low four bytes, then each byte looks up its contribution
// given how many bytes still follow it.
func crcWord(crc uint32, w uint64) uint32 {
	x := w ^ uint64(crc)
	return crcSlice8[7][byte(x)] ^ crcSlice8[6][byte(x>>8)] ^
		crcSlice8[5][byte(x>>16)] ^ crcSlice8[4][byte(x>>24)] ^
		crcSlice8[3][byte(x>>32)] ^ crcSlice8[2][byte(x>>40)] ^
		crcSlice8[1][byte(x>>48)] ^ crcSlice8[0][x>>56]
}

// Sealed is a frame carrying its checksum, as it travels on an
// unreliable fabric.
type Sealed struct {
	Frame Frame
	CRC   uint32
}

// Seal attaches the checksum.
func Seal(f Frame) Sealed { return Sealed{Frame: f, CRC: f.Checksum()} }

// ChecksumError reports a frame whose checksum does not match the CRC
// it traveled with. It keeps only the frame's identity, and formats it
// only when read: the serving paths count and discard these errors on
// every injected corruption, so building the message eagerly would put
// formatting garbage on the recovery path.
type ChecksumError struct {
	Src, Dst addr.NodeID
	Seq      uint64
	// Got is the checksum recomputed at the receiver; Want is the CRC
	// the frame carried.
	Got, Want uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("hnc: checksum mismatch on frame %d->%d seq=%d: %#x != %#x", e.Src, e.Dst, e.Seq, e.Got, e.Want)
}

// Open verifies the checksum and returns the frame. A mismatch returns
// a *ChecksumError.
func (s Sealed) Open() (Frame, error) {
	if got := s.Frame.Checksum(); got != s.CRC {
		return Frame{}, &ChecksumError{Src: s.Frame.Src, Dst: s.Frame.Dst, Seq: s.Frame.Seq, Got: got, Want: s.CRC}
	}
	return s.Frame, nil
}

// Verifier tracks per-peer frame sequences at a receiving RMC and counts
// integrity events: gaps (dropped frames) and regressions (reordering or
// replay). Bridges emit dense sequences starting at 1, so an untouched
// peer window sits at 0 and a first frame above 1 counts the frames
// dropped ahead of it.
type Verifier struct {
	self addr.NodeID
	last map[uint32]uint64 // keyed by source node, widened as Bridge.seq is

	// Received, Gaps, Regressions, and Corrupt count events.
	Received, Gaps, Regressions, Corrupt uint64
}

// NewVerifier builds a verifier for one node.
func NewVerifier(self addr.NodeID) *Verifier {
	return &Verifier{self: self, last: make(map[uint32]uint64)}
}

// open runs the checks shared by both acceptance paths: checksum and
// destination. Failures there are hard errors on every path.
func (v *Verifier) open(s Sealed) (Frame, error) {
	f, err := s.Open()
	if err != nil {
		v.Corrupt++
		return Frame{}, err
	}
	if f.Dst != v.self {
		return Frame{}, fmt.Errorf("hnc: frame for node %d accepted at node %d", f.Dst, v.self)
	}
	return f, nil
}

// note applies the sequencing rules, shared by both paths so their
// windows can never diverge. In-order and gap arrivals advance the peer
// window and count as received; a regression never touches the window
// (a replayed max-seq frame must not poison it). The paths differ only
// in what a regression yields: strict refuses the frame (not received),
// loose serves it (received, counted).
func (v *Verifier) note(src addr.NodeID, seq uint64, strict bool) error {
	last := v.last[uint32(src)]
	switch {
	case seq == last+1:
		// In order.
	case seq > last+1:
		v.Gaps += seq - last - 1
	default:
		v.Regressions++
		if strict {
			return fmt.Errorf("hnc: frame %d from node %d after %d (reorder or replay)", seq, src, last)
		}
		v.Received++
		return nil
	}
	v.Received++
	v.last[uint32(src)] = seq
	return nil
}

// Accept verifies a sealed frame end to end: checksum, destination, and
// per-source sequencing. It returns the frame when clean; integrity
// failures return errors and bump the counters. Refused frames leave
// the peer window untouched, so one replay cannot wedge a stream.
func (v *Verifier) Accept(s Sealed) (Frame, error) {
	f, err := v.open(s)
	if err != nil {
		return Frame{}, err
	}
	if err := v.note(f.Src, f.Seq, true); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// AcceptLoose is the serving-path variant of Accept: checksum and
// destination failures still error, but sequence anomalies (gaps,
// regressions) are only counted — the frame is returned and served. A
// live RMC cannot refuse work because an earlier frame was dropped; the
// anomaly surfaces through the metrics layer instead.
func (v *Verifier) AcceptLoose(s Sealed) (Frame, error) {
	f, err := v.open(s)
	if err != nil {
		return Frame{}, err
	}
	v.note(f.Src, f.Seq, false)
	return f, nil
}

// Clean reports whether no integrity events have been observed.
func (v *Verifier) Clean() bool { return v.Gaps == 0 && v.Regressions == 0 && v.Corrupt == 0 }

// ReassembledPayload is a convenience for tests: verify and decapsulate
// in one step through a bridge.
func (v *Verifier) ReassembledPayload(b *Bridge, s Sealed) (ht.Packet, error) {
	f, err := v.Accept(s)
	if err != nil {
		return ht.Packet{}, err
	}
	return b.Inbound(f)
}
