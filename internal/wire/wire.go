// Package wire holds the little-endian payload codec shared by the netrt
// wire protocol and the internal/wal write-ahead log: an append-only
// encoder, an error-latching decoder, and the columnar stream.Batch
// serialization. It sits below both consumers (netrt imports engine, and
// engine imports wal, so neither could host the codec without a cycle) and
// depends only on internal/stream and the standard library.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rld/internal/stream"
)

// ErrCorrupt reports a structurally invalid payload: a short read, an
// inconsistent length, or a count that exceeds what the remaining bytes
// can hold. netrt's ErrBadFrame and wal's ErrWALCorrupt both wrap or alias
// it, so errors.Is(err, ErrCorrupt) matches malformed input from either
// consumer.
var ErrCorrupt = errors.New("wire: malformed payload")

// Enc is an append-only little-endian payload encoder. The zero value is
// ready to use; B is the encoded payload.
type Enc struct{ B []byte }

// U8 appends one byte.
func (e *Enc) U8(v byte) { e.B = append(e.B, v) }

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.B = binary.LittleEndian.AppendUint16(e.B, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// I64 appends an int64 as its two's-complement uint64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a u32 length prefix followed by the string bytes.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Dec is the matching decoder; every underflow or inconsistency latches
// Err (wrapping ErrCorrupt) and zero-values flow from then on, so message
// decoders check Err once at the end. B is the remaining payload.
type Dec struct {
	B   []byte
	Err error
}

// Fail latches the corrupt-payload error if none is set yet.
func (d *Dec) Fail() {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: short payload", ErrCorrupt)
	}
}

// Take consumes and returns the next n bytes, or nil after latching Err.
func (d *Dec) Take(n int) []byte {
	if d.Err != nil || len(d.B) < n {
		d.Fail()
		return nil
	}
	out := d.B[:n]
	d.B = d.B[n:]
	return out
}

// U8 consumes one byte.
func (d *Dec) U8() byte {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 consumes a little-endian uint16.
func (d *Dec) U16() uint16 {
	b := d.Take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 consumes a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 consumes an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 consumes a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str consumes a u32-length-prefixed string.
func (d *Dec) Str() string { return string(d.Take(int(d.strLen()))) }

// strLen consumes a string's u32 length prefix, latching Err when the
// remaining payload cannot hold that many bytes.
func (d *Dec) strLen() uint32 {
	n := d.U32()
	if d.Err != nil || uint64(n) > uint64(len(d.B)) {
		d.Fail()
		return 0
	}
	return n
}

// EncodeBatch appends b's columns: stream name, width, row count, the four
// attribute columns, then the flat payload column.
func EncodeBatch(e *Enc, b *stream.Batch) {
	e.Str(b.Stream)
	w := b.Width()
	if w < 0 {
		w = 0
	}
	e.U16(uint16(w))
	n := b.Len()
	e.U32(uint32(n))
	for i := 0; i < n; i++ {
		e.U64(b.Seq[i])
		e.F64(float64(b.Ts[i]))
		e.I64(b.Key[i])
		e.F64(float64(b.Arr[i]))
	}
	for _, v := range b.Vals[:n*w] {
		e.F64(v)
	}
}

// DecodeBatch rebuilds a batch from the payload into a fresh allocation the
// caller owns outright — the form for batches that outlive the payload
// (snapshots, restores, WAL replay records). A consumer that copies the rows
// out before decoding the next batch uses a BatchDecoder instead.
func DecodeBatch(d *Dec) (*stream.Batch, error) {
	return decodeBatch(d, func(name []byte, w, n int) *stream.Batch {
		return stream.NewSizedBatch(string(name), w, n)
	})
}

// BatchDecoder decodes batches into reused storage: one batch per stream
// name, overwritten by the next decode of that stream, so a steady stream of
// same-shaped batches decodes without allocating. A decoded batch is valid
// until the next Decode; it suits consumers that copy the rows out before
// then (window inserts, WAL appends). The zero value is ready to use; not
// safe for concurrent use.
type BatchDecoder struct {
	byStream map[string]*stream.Batch
}

// Decode decodes the next batch like DecodeBatch, into the reused batch of
// its stream.
func (bd *BatchDecoder) Decode(d *Dec) (*stream.Batch, error) {
	return decodeBatch(d, bd.batchFor)
}

// batchFor returns the reset batch for stream name with width w, replacing
// a cached one of another width.
func (bd *BatchDecoder) batchFor(name []byte, w, n int) *stream.Batch {
	b := bd.byStream[string(name)]
	if b == nil || b.Width() != w {
		b = stream.NewSizedBatch(string(name), w, n)
		if bd.byStream == nil {
			bd.byStream = make(map[string]*stream.Batch)
		}
		bd.byStream[b.Stream] = b
	}
	b.Reset()
	return b
}

// decodeBatch decodes one EncodeBatch payload into the empty batch alloc
// returns for the payload's stream name, width and row count.
func decodeBatch(d *Dec, alloc func(name []byte, w, n int) *stream.Batch) (*stream.Batch, error) {
	name := d.Take(int(d.strLen()))
	w := int(d.U16())
	n := int(d.U32())
	if d.Err != nil {
		return nil, d.Err
	}
	// Bound the row count by what the remaining payload can actually
	// hold, so a corrupt header cannot trigger a huge allocation.
	if uint64(n)*uint64(32+8*w) > uint64(len(d.B)) {
		return nil, fmt.Errorf("%w: batch rows exceed payload", ErrCorrupt)
	}
	b := alloc(name, w, n)
	for i := 0; i < n; i++ {
		seq := d.U64()
		ts := stream.Time(d.F64())
		key := d.I64()
		arr := stream.Time(d.F64())
		b.AppendRow(seq, ts, key, arr)
	}
	for i := range b.Vals {
		b.Vals[i] = d.F64()
	}
	if d.Err != nil {
		return nil, d.Err
	}
	return b, nil
}
