package netrt

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"rld/internal/engine"
	"rld/internal/physical"
	"rld/internal/stream"
)

// hopRig is one leader↔worker connection with both ends in this process:
// a Cluster whose single worker's connection is one end of conn pair, and
// the worker's serve loop on the other end. It drives the real stage and
// insert paths without spawning a process.
type hopRig struct {
	c    *Cluster
	wp   *workerProc
	done chan error
}

// newHopRig connects a one-worker leader to serve over the given
// connection pair; the worker stops when the test ends.
func newHopRig(tb testing.TB, leaderEnd, workerEnd net.Conn) *hopRig {
	tb.Helper()
	q := testQuery()
	core, err := engine.NewNodeCore(q, engine.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	wcore, err := engine.NewNodeCore(q, core.Config())
	if err != nil {
		tb.Fatal(err)
	}
	wp := &workerProc{node: 0, slow: 1, wc: newWireConn(leaderEnd)}
	r := &hopRig{
		c:    &Cluster{q: q, cfg: ClusterConfig{}.withDefaults(), core: core, workers: []*workerProc{wp}},
		wp:   wp,
		done: make(chan error, 1),
	}
	go func() { r.done <- serve(newWireConn(workerEnd), wcore, DefaultStageChunk, nil) }()
	tb.Cleanup(func() {
		if err := wp.wc.writeFrame(frameQuit, nil); err != nil {
			tb.Error(err)
		}
		if err := <-r.done; err != nil {
			tb.Error(err)
		}
		leaderEnd.Close()
		workerEnd.Close()
	})
	return r
}

// pipeRig is a hopRig over an in-memory net.Pipe.
func pipeRig(tb testing.TB) *hopRig {
	a, b := net.Pipe()
	return newHopRig(tb, a, b)
}

// selectPartials builds n single-part S1 partials that pass op 0's
// selection, so a stage hop on op 0 returns all of them.
func selectPartials(sch *stream.JoinSchema, n int) []*stream.Joined {
	ps := make([]*stream.Joined, n)
	for i := range ps {
		ps[i] = sch.Acquire()
		ps[i].SetPart(0, uint64(i), stream.Time(i), int64(i%8), stream.Time(i), []float64{50})
	}
	return ps
}

// stageHop runs one op-0 stage hop over ps and recycles its output.
func (r *hopRig) stageHop(tb testing.TB, ps []*stream.Joined) {
	out, _, _, _, err := r.c.callStage(r.wp, 0, ps)
	if err != nil {
		tb.Fatal(err)
	}
	if len(out) != len(ps) {
		tb.Fatalf("stage hop returned %d of %d partials", len(out), len(ps))
	}
	r.c.core.ReleasePartials(out)
}

// TestHopConcurrentCallers drives one worker's shared frame scratch from
// several goroutines at once — concurrent Ingest producers inserting while
// consumers run stage hops — so -race checks that callMu alone serializes
// every use of it.
func TestHopConcurrentCallers(t *testing.T) {
	r := pipeRig(t)
	sch := r.c.core.Schema()
	assign := physical.Assignment{0, 0}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seq := uint64(g) << 32
			ps := selectPartials(sch, 8+g)
			defer r.c.core.ReleasePartials(ps)
			for i := 0; i < 50; i++ {
				if err := r.c.InsertWindows(testBatch("S2", &seq, float64(i), 4+g), assign); err != nil {
					t.Error(err)
					return
				}
				out, _, _, _, err := r.c.callStage(r.wp, 0, ps)
				if err != nil {
					t.Error(err)
					return
				}
				if len(out) != len(ps) {
					t.Errorf("stage hop returned %d of %d partials", len(out), len(ps))
				}
				r.c.core.ReleasePartials(out)
			}
		}(g)
	}
	wg.Wait()
}

// TestFrameScratchBounded pins the retained-scratch bound: after one frame
// beyond maxRetainedFrame and then a small one, neither the reading end's
// payload scratch nor the leader's request scratch stays large.
func TestFrameScratchBounded(t *testing.T) {
	a, b := pipePair(t)
	big := make([]byte, maxRetainedFrame+1)
	go func() {
		if err := a.writeFrame(frameRestore, big); err != nil {
			t.Error(err)
		}
		if err := a.writeFrame(frameOK, []byte("small")); err != nil {
			t.Error(err)
		}
	}()
	for _, want := range []int{len(big), len("small")} {
		_, payload, err := b.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != want {
			t.Fatalf("read %d bytes, want %d", len(payload), want)
		}
	}
	if c := cap(b.buf); c > maxRetainedFrame {
		t.Fatalf("read scratch kept %d bytes after a small frame (bound %d)", c, maxRetainedFrame)
	}

	// An insert frame past the bound: each width-8 row encodes to 96
	// bytes (four attributes plus eight values).
	r := pipeRig(t)
	var seq uint64
	rows := maxRetainedFrame/96 + 1
	wide := stream.NewSizedBatch("S2", 8, rows)
	for i := 0; i < rows; i++ {
		wide.AppendRow(seq, 1, int64(i%8), 1)
		seq++
	}
	assign := physical.Assignment{0, 0}
	for _, bt := range []*stream.Batch{wide, testBatch("S2", &seq, 2, 8)} {
		if err := r.c.InsertWindows(bt, assign); err != nil {
			t.Fatal(err)
		}
	}
	r.wp.callMu.Lock()
	c := cap(r.wp.frame.B)
	r.wp.callMu.Unlock()
	if c > maxRetainedFrame {
		t.Fatalf("leader frame scratch kept %d bytes after a small insert (bound %d)", c, maxRetainedFrame)
	}
}

// BenchmarkStageHop times one leader→worker→leader stage hop of a select
// operator over loopback TCP, both ends in this process: encode, send,
// worker decode + stage + reply encode, and leader decode.
func BenchmarkStageHop(b *testing.B) {
	for _, n := range []int{8, 512} {
		b.Run(fmt.Sprintf("partials=%d", n), func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan net.Conn, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					b.Error(err)
				}
				accepted <- conn
			}()
			leaderEnd, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			r := newHopRig(b, leaderEnd, <-accepted)
			ps := selectPartials(r.c.core.Schema(), n)
			defer r.c.core.ReleasePartials(ps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.stageHop(b, ps)
			}
		})
	}
}
