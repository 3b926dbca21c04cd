// Package netrt is the multi-process network substrate: each node of the
// cluster is a real OS process (cmd/rldworker, or a re-exec of the host
// binary) owning its operators' join-window state through the same
// engine.NodeCore the in-process engine runs. The leader, embedded in the
// caller's process, is the same engine.Leader the in-process engine runs —
// routing table, placement, plan classification, statistics, per-node
// queues, checkpoints and the failure lifecycle — and Cluster is its TCP
// Transport: spawn, handshake, heartbeat, stage and control RPCs, and
// re-offer of unacknowledged inserts. Leader and workers speak a length-prefixed binary TCP protocol with no
// dependencies outside the standard library; stream.Batch columns are
// serialized directly onto the wire, so the columnar hot path survives the
// hop. Crash here is a literal SIGKILL of the worker process, and Recover
// respawns it with a checkpoint restore — the chaos conformance tests run
// against real process death.
package netrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"rld/internal/stream"
	"rld/internal/wire"
)

const (
	// protoMagic opens every Hello frame ("RLD1").
	protoMagic = 0x524C4431
	// ProtoVersion is the wire protocol version; leader and worker must
	// match exactly. v2 added the WAL control frames (barrier, mark,
	// replay) for exactly-once durability; v3 made frameStageResult carry
	// the call's selectivity sample instead of the worker's running totals.
	ProtoVersion = 3
	// MaxFrame bounds a single frame's payload. Frames beyond it are
	// rejected with ErrFrameTooLarge before any allocation.
	MaxFrame = 64 << 20
	// DefaultStageChunk is the soft bound on one stage frame's partials
	// payload. A hop whose partials encode past it travels as several
	// frames (frameStagePart… + frameStageResult) instead of one — join
	// fanout can multiply a batch far beyond MaxFrame, and the chunking
	// keeps every individual frame small no matter how large a logical
	// hop grows.
	DefaultStageChunk = 8 << 20
)

// Typed wire-protocol errors: every malformed input the protocol can see
// maps to one of these (matched with errors.Is) — never a panic or a hang.
var (
	// ErrFrameTooLarge reports a frame header announcing a payload beyond
	// MaxFrame.
	ErrFrameTooLarge = errors.New("netrt: frame exceeds size limit")
	// ErrTruncatedFrame reports a connection that ended mid-frame.
	ErrTruncatedFrame = errors.New("netrt: truncated frame")
	// ErrVersionMismatch reports a worker handshake with a different
	// protocol version.
	ErrVersionMismatch = errors.New("netrt: protocol version mismatch")
	// ErrStaleEpoch reports a worker from a previous leader incarnation
	// (its handshake epoch does not match the live leader's).
	ErrStaleEpoch = errors.New("netrt: stale worker epoch")
	// ErrBadFrame reports a structurally invalid frame or payload. It is
	// the shared wire.ErrCorrupt sentinel, so codec-level decode failures
	// (which latch wire.ErrCorrupt) match it without re-wrapping.
	ErrBadFrame = wire.ErrCorrupt
	// ErrWorkerDown reports an RPC attempted against a crashed worker.
	ErrWorkerDown = errors.New("netrt: worker down")
	// ErrRemote reports a worker-side error frame with no more specific
	// code — the remote detail rides along as wrapped text.
	ErrRemote = errors.New("netrt: remote error")
	// ErrStartupTimeout reports workers that failed to complete their
	// handshake within ClusterConfig.StartupTimeout.
	ErrStartupTimeout = errors.New("netrt: startup timeout")
)

// frameType tags each frame's payload.
type frameType byte

const (
	frameHello          frameType = iota + 1 // worker → leader: magic, version, node, epoch
	frameWelcome                             // leader → worker: JSON setup (query + config)
	frameError                               // either way: code + message, then close
	frameInsert                              // leader → worker: ops + batch columns
	frameStage                               // leader → worker: op + partials
	frameStageResult                         // worker → leader: sel sample + partials
	frameSnapshot                            // leader → worker: op
	frameSnapshotResult                      // worker → leader: optional batch
	frameRestore                             // leader → worker: op + optional batch
	frameClear                               // leader → worker: op
	frameOK                                  // worker → leader: empty ack
	framePing                                // leader → worker: liveness probe
	framePong                                // worker → leader: liveness reply
	frameQuit                                // leader → worker: clean shutdown
	frameStagePart                           // worker → leader: partials continuation before the stage result
	frameWALBarrier                          // leader → worker: cut a WAL barrier before snapshot pulls
	frameWALMark                             // leader → worker: checkpoint durable, truncate to the barrier
	frameWALReplay                           // leader → worker: replay the retained WAL into the windows
)

// Error-frame codes, mapped back to the typed errors on decode.
const (
	codeGeneric byte = iota
	codeVersionMismatch
	codeStaleEpoch
	codeBadFrame
)

// errorToCode maps a typed error to its wire code.
func errorToCode(err error) byte {
	switch {
	case errors.Is(err, ErrVersionMismatch):
		return codeVersionMismatch
	case errors.Is(err, ErrStaleEpoch):
		return codeStaleEpoch
	case errors.Is(err, ErrBadFrame):
		return codeBadFrame
	}
	return codeGeneric
}

// codeToError reconstructs the typed error from an error frame.
func codeToError(code byte, msg string) error {
	switch code {
	case codeVersionMismatch:
		return fmt.Errorf("%w: %s", ErrVersionMismatch, msg)
	case codeStaleEpoch:
		return fmt.Errorf("%w: %s", ErrStaleEpoch, msg)
	case codeBadFrame:
		return fmt.Errorf("%w: %s", ErrBadFrame, msg)
	}
	return fmt.Errorf("%w: %s", ErrRemote, msg)
}

// wireConn wraps one TCP connection with buffered framed I/O and reusable
// encode/decode scratch. Not safe for concurrent use; callers serialize
// (the leader holds a per-worker call mutex, the worker is single-threaded).
type wireConn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	buf []byte // read payload scratch, reused across frames
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}
}

func (wc *wireConn) Close() error { return wc.c.Close() }

// writeFrame sends one frame: u32 little-endian payload length, u8 type,
// payload. A payload beyond MaxFrame is refused before any bytes hit the
// wire, so the connection stays frame-aligned — the peer's readFrame
// would reject the length anyway, but by then the stream is poisoned.
func (wc *wireConn) writeFrame(t frameType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := wc.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := wc.w.Write(payload); err != nil {
		return err
	}
	return wc.w.Flush()
}

// writeError best-effort sends a typed error frame (used just before
// closing a rejected connection).
func (wc *wireConn) writeError(err error) {
	var e enc
	e.U8(errorToCode(err))
	e.Str(err.Error())
	_ = wc.writeFrame(frameError, e.B)
}

// readFrame reads one frame. A connection ending cleanly between frames
// returns io.EOF; ending mid-frame returns ErrTruncatedFrame; a length
// beyond MaxFrame returns ErrFrameTooLarge without reading the payload.
// The returned payload aliases the connection's scratch buffer and is valid
// until the next readFrame.
func (wc *wireConn) readFrame() (frameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(wc.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header: %v", ErrTruncatedFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	t := frameType(hdr[4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	if cap(wc.buf) < int(n) {
		wc.buf = make([]byte, n)
	}
	wc.buf = wc.buf[:n]
	if _, err := io.ReadFull(wc.r, wc.buf); err != nil {
		return 0, nil, fmt.Errorf("%w: payload: %v", ErrTruncatedFrame, err)
	}
	return t, wc.buf, nil
}

// enc and dec are the shared payload codec (internal/wire), aliased so the
// protocol's message codecs read unqualified; encodeBatch/decodeBatch are
// the columnar batch serialization both netrt and the WAL use.
type (
	enc = wire.Enc
	dec = wire.Dec
)

func encodeBatch(e *enc, b *stream.Batch)       { wire.EncodeBatch(e, b) }
func decodeBatch(d *dec) (*stream.Batch, error) { return wire.DecodeBatch(d) }

// helloMsg is the worker's handshake.
type helloMsg struct {
	node  int
	epoch uint64
}

func encodeHello(node int, epoch uint64) []byte {
	var e enc
	e.U32(protoMagic)
	e.U16(ProtoVersion)
	e.U32(uint32(node))
	e.U64(epoch)
	return e.B
}

// decodeHello validates magic and version; epoch/node validation is the
// leader's (it knows the live epoch and cluster size).
func decodeHello(payload []byte) (helloMsg, error) {
	d := dec{B: payload}
	magic := d.U32()
	ver := d.U16()
	node := d.U32()
	epoch := d.U64()
	if d.Err != nil {
		return helloMsg{}, d.Err
	}
	if magic != protoMagic {
		return helloMsg{}, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, magic)
	}
	if ver != ProtoVersion {
		return helloMsg{}, fmt.Errorf("%w: worker speaks v%d, leader v%d", ErrVersionMismatch, ver, ProtoVersion)
	}
	return helloMsg{node: int(node), epoch: epoch}, nil
}

// encodePartials appends a slice of join partials: count, then per partial
// the populated-slot mask followed by each populated part in ascending slot
// order (seq, ts, key, arrival, payload).
func encodePartials(e *enc, sch *stream.JoinSchema, ps []*stream.Joined) {
	e.U32(uint32(len(ps)))
	for _, p := range ps {
		var mask uint64
		for slot := 0; slot < sch.Len(); slot++ {
			if p.Has(slot) {
				mask |= 1 << uint(slot)
			}
		}
		e.U64(mask)
		for slot := 0; slot < sch.Len(); slot++ {
			t, ok := p.Part(slot)
			if !ok {
				continue
			}
			e.U64(t.Seq)
			e.F64(float64(t.Ts))
			e.I64(t.Key)
			e.F64(float64(t.Arrival))
			e.U16(uint16(len(t.Vals)))
			for _, v := range t.Vals {
				e.F64(v)
			}
		}
	}
}

// partialWireSize returns the exact encoded size of one partial under
// encodePartials: the slot mask plus, per populated slot, the fixed tuple
// header and its payload values.
func partialWireSize(sch *stream.JoinSchema, p *stream.Joined) int {
	n := 8 // mask
	for slot := 0; slot < sch.Len(); slot++ {
		t, ok := p.Part(slot)
		if !ok {
			continue
		}
		n += 8 + 8 + 8 + 8 + 2 + 8*len(t.Vals)
	}
	return n
}

// splitPartials partitions ps into consecutive runs whose encodePartials
// payloads each stay within limit (plus the 4-byte count header). A single
// partial larger than limit still gets its own chunk — writeFrame's
// MaxFrame check is the hard stop. Order is preserved; an empty input
// yields no chunks.
func splitPartials(sch *stream.JoinSchema, ps []*stream.Joined, limit int) [][]*stream.Joined {
	if len(ps) == 0 {
		return nil
	}
	var chunks [][]*stream.Joined
	start, size := 0, 0
	for i, p := range ps {
		s := partialWireSize(sch, p)
		if i > start && size+s > limit {
			chunks = append(chunks, ps[start:i])
			start, size = i, 0
		}
		size += s
	}
	return append(chunks, ps[start:])
}

// decodePartials rebuilds partials into dst (pass an empty pooled slice).
// Parts are applied in ascending slot order, which reproduces the Ts=max /
// Arrival=min aggregates SetPart folds exactly as the sender computed them.
func decodePartials(d *dec, sch *stream.JoinSchema, dst []*stream.Joined) ([]*stream.Joined, error) {
	n := int(d.U32())
	if d.Err != nil {
		return dst, d.Err
	}
	// Each partial costs at least a mask on the wire.
	if uint64(n)*8 > uint64(len(d.B)) {
		return dst, fmt.Errorf("%w: partial count exceeds payload", ErrBadFrame)
	}
	var vals []float64
	for i := 0; i < n; i++ {
		mask := d.U64()
		if mask>>uint(sch.Len()) != 0 {
			d.Err = fmt.Errorf("%w: partial mask has out-of-schema slots", ErrBadFrame)
		}
		j := sch.Acquire()
		for slot := 0; slot < sch.Len() && d.Err == nil; slot++ {
			if mask&(1<<uint(slot)) == 0 {
				continue
			}
			seq := d.U64()
			ts := stream.Time(d.F64())
			key := d.I64()
			arr := stream.Time(d.F64())
			nv := int(d.U16())
			if uint64(nv)*8 > uint64(len(d.B)) {
				d.Fail()
				break
			}
			vals = vals[:0]
			for v := 0; v < nv; v++ {
				vals = append(vals, d.F64())
			}
			j.SetPart(slot, seq, ts, key, arr, vals)
		}
		if d.Err != nil {
			j.Release()
			return dst, d.Err
		}
		dst = append(dst, j)
	}
	return dst, nil
}
