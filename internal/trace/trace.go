// Package trace records and replays memory-access traces in a compact
// binary format, so an experiment's exact access sequence can be saved,
// diffed across code versions, and replayed against any memory
// configuration (micro-layer streams or macro-layer accessors) — the
// reproducibility backbone of EXPERIMENTS.md.
//
// Format: an 8-byte header ("NCDSMTR1"), then one record per access:
// a flag byte (bit 0 = write) followed by the address as a varint delta
// against the previous address (zig-zag encoded). Deltas make streaming
// patterns almost free to store.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/memmodel"
	"repro/internal/params"
)

// magic identifies the format and its version.
var magic = [8]byte{'N', 'C', 'D', 'S', 'M', 'T', 'R', '1'}

// Record is one traced access.
type Record struct {
	Addr  uint64
	Write bool
}

// Writer streams records to an underlying writer.
type Writer struct {
	w    *bufio.Writer
	prev uint64
	n    uint64
	open bool
}

// NewWriter writes the header and returns a trace writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, open: true}, nil
}

// Add appends one record.
func (t *Writer) Add(r Record) error {
	if !t.open {
		return errors.New("trace: writer closed")
	}
	flags := byte(0)
	if r.Write {
		flags = 1
	}
	if err := t.w.WriteByte(flags); err != nil {
		return err
	}
	delta := int64(r.Addr) - int64(t.prev)
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], delta)
	if _, err := t.w.Write(buf[:n]); err != nil {
		return err
	}
	t.prev = r.Addr
	t.n++
	return nil
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.n }

// Close flushes the trace. The writer is unusable afterwards.
func (t *Writer) Close() error {
	t.open = false
	return t.w.Flush()
}

// Reader streams records back.
type Reader struct {
	r    *bufio.Reader
	prev uint64
}

// NewReader validates the header and returns a trace reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:])
	}
	return &Reader{r: br}, nil
}

// Next returns the next record, or io.EOF at the end.
func (t *Reader) Next() (Record, error) {
	flags, err := t.r.ReadByte()
	if err != nil {
		return Record{}, err // io.EOF passes through
	}
	if flags > 1 {
		return Record{}, fmt.Errorf("trace: corrupt flag byte %#x", flags)
	}
	delta, err := binary.ReadVarint(t.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, fmt.Errorf("trace: reading address: %w", err)
	}
	a := uint64(int64(t.prev) + delta)
	t.prev = a
	return Record{Addr: a, Write: flags&1 == 1}, nil
}

// ReadAll drains the reader.
func (t *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		r, err := t.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// RecordStream wraps a cpu.Stream, copying every access into the writer
// as it flows through.
func RecordStream(inner cpu.Stream, w *Writer) cpu.Stream {
	return cpu.FuncStream(func() (cpu.Access, bool) {
		a, ok := inner.Next()
		if !ok {
			return a, false
		}
		if err := w.Add(Record{Addr: uint64(a.Addr), Write: a.Write}); err != nil {
			panic(fmt.Sprintf("trace: recording failed: %v", err))
		}
		return a, true
	})
}

// Stream replays a trace as a cpu.Stream of physical accesses.
func (t *Reader) Stream() cpu.Stream {
	return cpu.FuncStream(func() (cpu.Access, bool) {
		r, err := t.Next()
		if errors.Is(err, io.EOF) {
			return cpu.Access{}, false
		}
		if err != nil {
			panic(fmt.Sprintf("trace: replay failed: %v", err))
		}
		return cpu.Access{Addr: addr.Phys(r.Addr), Write: r.Write}, true
	})
}

// replayChunk is how many records Replay buffers per AccessBatch call.
// Batch boundaries never change costs or accessor state.
const replayChunk = 4096

// Replay runs the whole trace against a macro-layer accessor and returns
// the accumulated memory time and access count.
func (t *Reader) Replay(acc memmodel.Accessor) (params.Duration, uint64, error) {
	var total params.Duration
	var n uint64
	var b memmodel.Batcher
	b.Grow(replayChunk)
	ops := b.Lend()
	for {
		r, err := t.Next()
		if err != nil {
			total += b.Price(ops, acc)
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return total, n, err
		}
		ops = append(ops, memmodel.AccessOp{Addr: r.Addr, Write: r.Write})
		n++
		if len(ops) == replayChunk {
			total += b.Price(ops, acc)
			ops = b.Lend()
		}
	}
}
