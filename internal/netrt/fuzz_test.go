package netrt

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"rld/internal/stream"
)

// isFrameErr reports whether err is one of the typed errors a malformed
// frame or payload may produce.
func isFrameErr(err error) bool {
	return errors.Is(err, ErrBadFrame) || errors.Is(err, ErrTruncatedFrame) || errors.Is(err, ErrFrameTooLarge)
}

// partialsScratch is the reusable decode state of one connection end: the
// destination slice and the value scratch.
type partialsScratch struct {
	dst  []*stream.Joined
	vals []float64
}

// decode decodes data into the scratch and returns the re-encoding of
// whatever it decoded (all of it, or the partials before a failure), how
// many bytes the decode consumed, and the error. The decoded partials are
// released, leaving the scratch for the next call.
func (s *partialsScratch) decode(sch *stream.JoinSchema, data []byte) ([]byte, int, error) {
	d := dec{B: data}
	var err error
	s.dst, err = decodePartials(&d, sch, s.dst[:0], &s.vals)
	var e enc
	encodePartials(&e, sch, s.dst)
	for _, p := range s.dst {
		p.Release()
	}
	return e.B, len(data) - len(d.B), err
}

// FuzzDecodePartials feeds arbitrary payloads to the partials decoder. It
// must never panic, must fail only with a typed frame error, must re-encode
// a valid payload to exactly the bytes it consumed, and must decode the
// same way into scratch that a failed decode left behind as into fresh
// scratch — buffer reuse may not leak state between payloads.
func FuzzDecodePartials(f *testing.F) {
	sch := stream.NewJoinSchema([]string{"S1", "S2", "S3"})
	p := sch.Acquire()
	p.SetPart(0, 1, 10, 7, 9, []float64{1, 2})
	p.SetPart(2, 5, 12, 7, 8, []float64{3})
	var e enc
	encodePartials(&e, sch, []*stream.Joined{p, p})
	f.Add(e.B)
	f.Add(e.B[:len(e.B)-3])
	e.B = e.B[:0]
	encodePartials(&e, sch, nil)
	f.Add(e.B)
	e.B = e.B[:0]
	e.U32(1)
	e.U64(1 << 5) // out-of-schema slot
	f.Add(e.B)
	p.Release()

	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh partialsScratch
		got, used, err := fresh.decode(sch, data)
		if err != nil && !isFrameErr(err) {
			t.Fatalf("untyped decode error: %v", err)
		}
		if err == nil && !bytes.Equal(got, data[:used]) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", got, data[:used])
		}
		// A decode that fails partway (a truncated copy of the input, or a
		// corrupt one) leaves the scratch dirty; decoding the input again
		// into it must match the fresh decode exactly.
		var reused partialsScratch
		reused.decode(sch, data[:len(data)/2])
		corrupt := append([]byte(nil), data...)
		if len(corrupt) > 12 {
			corrupt[12] ^= 0xff
		}
		reused.decode(sch, corrupt)
		again, used2, err2 := reused.decode(sch, data)
		if (err == nil) != (err2 == nil) || used != used2 || !bytes.Equal(got, again) {
			t.Fatalf("reused scratch diverged: err %v vs %v, used %d vs %d", err, err2, used, used2)
		}
	})
}

// frameReader is a read-only wireConn over data, as readFrame sees a
// connection that delivered exactly those bytes.
func frameReader(data []byte) *wireConn {
	return &wireConn{r: bufio.NewReader(bytes.NewReader(data))}
}

// readFrames reads frames until the first error and returns each frame
// re-written with writeFrame, the number of bytes they spanned on input,
// and the terminating error.
func readFrames(wc *wireConn) ([]byte, int, error) {
	var out bytes.Buffer
	w := &wireConn{w: bufio.NewWriter(&out)}
	used := 0
	for {
		t, payload, err := wc.readFrame()
		if err != nil {
			return out.Bytes(), used, err
		}
		if err := w.writeFrame(t, payload); err != nil {
			return out.Bytes(), used, err
		}
		used += frameHeader + len(payload)
	}
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader. It must
// never panic, must end either cleanly (io.EOF between frames) or with a
// typed frame error, must re-write every frame it read to exactly the input
// bytes, and must read the same frames after a failed read on the same
// connection as a fresh connection does.
func FuzzReadFrame(f *testing.F) {
	var e enc
	for _, fr := range []struct {
		t       frameType
		payload string
	}{{frameStage, "payload"}, {framePing, ""}, {frameOK, "ok"}} {
		hdr := make([]byte, frameHeader)
		putHeader(hdr, fr.t, len(fr.payload))
		e.B = append(append(e.B, hdr...), fr.payload...)
	}
	f.Add(e.B)
	f.Add(e.B[:len(e.B)-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(frameInsert)}) // beyond MaxFrame
	f.Add([]byte{1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, used, err := readFrames(frameReader(data))
		if err != io.EOF && !isFrameErr(err) {
			t.Fatalf("untyped read error: %v", err)
		}
		if !bytes.Equal(got, data[:used]) {
			t.Fatalf("re-written frames differ:\n got %x\nwant %x", got, data[:used])
		}
		wc := frameReader(data[:len(data)/2])
		readFrames(wc)
		wc.r.Reset(bytes.NewReader(data))
		again, used2, err2 := readFrames(wc)
		if (err == io.EOF) != (err2 == io.EOF) || used != used2 || !bytes.Equal(got, again) {
			t.Fatalf("reused connection diverged: err %v vs %v, used %d vs %d", err, err2, used, used2)
		}
	})
}
