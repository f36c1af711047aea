package hnc

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/ht"
)

// refChecksum is the checksum's definition, spelled out: the stdlib
// IEEE CRC-32 of the 32-byte little-endian header image followed by the
// packet's data. Frame.Checksum must agree with it bit for bit, since
// the CRC values are part of the simulated wire format.
func refChecksum(f Frame) uint32 {
	p := f.Payload
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(f.Src)|uint64(f.Dst)<<16|uint64(p.Cmd)<<32|uint64(p.SrcUnit)<<40|uint64(p.SrcTag)<<48)
	binary.LittleEndian.PutUint64(hdr[8:], f.Seq)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(p.Addr))
	cw := uint64(p.Count)
	if p.Posted {
		cw |= 1 << 63
	}
	binary.LittleEndian.PutUint64(hdr[24:], cw)
	return crc32.ChecksumIEEE(append(hdr[:], p.Data...))
}

// TestChecksumMatchesOracle quick-checks Frame.Checksum against the
// header-image definition over random frames: every field random, the
// Posted flag both ways, nil and empty data, and payload lengths 0–129
// so every tail length of the eight-byte stride is exercised.
func TestChecksumMatchesOracle(t *testing.T) {
	f := func(src, dst addr.NodeID, seq uint64, cmd uint8, unit uint8, tag uint16, a uint64, count int, posted bool, n uint8, nilData bool) bool {
		fr := Frame{Src: src, Dst: dst, Seq: seq, Payload: ht.Packet{
			Cmd: ht.Command(cmd), SrcUnit: ht.UnitID(unit), SrcTag: tag,
			Addr: addr.Phys(a), Count: count, Posted: posted,
		}}
		if !nilData {
			fr.Payload.Data = make([]byte, int(n)%130)
			rand.New(rand.NewSource(int64(seq))).Read(fr.Payload.Data)
		}
		return fr.Checksum() == refChecksum(fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}

	// Deterministic sweep: every length 0–129 at both Posted settings,
	// plus nil data, with every header field at its maximum.
	top := Frame{Src: math.MaxUint16, Dst: math.MaxUint16, Seq: math.MaxUint64, Payload: ht.Packet{
		Cmd: math.MaxUint8, SrcUnit: math.MaxUint8, SrcTag: math.MaxUint16,
		Addr: math.MaxUint64, Count: math.MaxInt,
	}}
	data := make([]byte, 129)
	for i := range data {
		data[i] = byte(0xff - i)
	}
	for _, posted := range []bool{false, true} {
		fr := top
		fr.Payload.Posted = posted
		if got, want := fr.Checksum(), refChecksum(fr); got != want {
			t.Errorf("nil data, posted=%v: %#x, want %#x", posted, got, want)
		}
		for n := 0; n <= len(data); n++ {
			fr.Payload.Data = data[:n]
			if got, want := fr.Checksum(), refChecksum(fr); got != want {
				t.Errorf("len %d, posted=%v: %#x, want %#x", n, posted, got, want)
			}
		}
	}
}

// A corrupted frame's error is a *ChecksumError carrying the frame's
// identity and both CRCs, through Open and through a verifier alike.
func TestChecksumErrorAs(t *testing.T) {
	fr := Frame{Src: 1, Dst: 3, Seq: 9, Payload: ht.Packet{
		Cmd: ht.CmdRdResponse, Count: 64, Data: make([]byte, 64),
	}}
	s := Seal(fr)
	s.CRC ^= 1
	_, err := s.Open()
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("Open error %v is not a *ChecksumError", err)
	}
	want := ChecksumError{Src: 1, Dst: 3, Seq: 9, Got: fr.Checksum(), Want: s.CRC}
	if *ce != want {
		t.Fatalf("ChecksumError = %+v, want %+v", *ce, want)
	}
	if msg := ce.Error(); !strings.Contains(msg, "1->3 seq=9") {
		t.Fatalf("error text %q does not name the frame", msg)
	}
	v := NewVerifier(3)
	if _, err := v.AcceptLoose(s); !errors.As(err, &ce) {
		t.Fatalf("AcceptLoose error %v is not a *ChecksumError", err)
	}
	if v.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", v.Corrupt)
	}
}

// Opening a corrupted frame costs at most the error value itself: the
// serving paths discard these errors on every injected corruption, so
// nothing may be formatted until the error is read.
func TestOpenCorruptedAllocs(t *testing.T) {
	fr := Frame{Src: 1, Dst: 3, Seq: 9, Payload: ht.Packet{
		Cmd: ht.CmdRdResponse, Count: 64, Data: make([]byte, 64),
	}}
	s := Seal(fr)
	s.CRC ^= 1
	v := NewVerifier(3)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := v.AcceptLoose(s); err == nil {
			t.Fatal("corrupted frame opened clean")
		}
	}); avg > 1 {
		t.Errorf("opening a corrupted frame allocates %.2f/op, want <= 1", avg)
	}
}
