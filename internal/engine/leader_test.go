package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
)

var errFakeStage = errors.New("fake transport: stage failed")

// fakeTransport is a deterministic in-test Transport with one consumer per
// node. Every stage passes its partials through unchanged and reports a
// selectivity sample of 3 in 10; stages on node 1 can be made to fail at
// once (failing) or to hang until Kill and then fail (block), standing in
// for a worker that dies under an RPC.
type fakeTransport struct {
	entered chan struct{} // signalled when a blocked stage starts

	mu       sync.Mutex
	failing  bool
	block    chan struct{}
	respawns []chaos.RecoveryMode
}

func (f *fakeTransport) Consumers() int { return 1 }
func (f *fakeTransport) Launch(*Leader) {}
func (f *fakeTransport) InsertWindows(*stream.Batch, physical.Assignment) error {
	return nil
}

func (f *fakeTransport) RunStage(node, _ int, ps []*stream.Joined) ([]*stream.Joined, int64, int64, error) {
	if node == 1 {
		f.mu.Lock()
		failing, block := f.failing, f.block
		f.mu.Unlock()
		if block != nil {
			f.entered <- struct{}{}
			<-block
			return nil, 0, 0, errFakeStage
		}
		if failing {
			return nil, 0, 0, errFakeStage
		}
	}
	return ps, 10, 3, nil
}

func (f *fakeTransport) Snapshot(int, int) *stream.Batch   { return nil }
func (f *fakeTransport) Move(int, int, int, *stream.Batch) {}

func (f *fakeTransport) Kill(int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.block != nil {
		close(f.block)
		f.block = nil
	}
}

func (f *fakeTransport) Respawn(_ int, mode chaos.RecoveryMode, _ []int, _ []*stream.Batch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failing = false
	f.respawns = append(f.respawns, mode)
	return nil
}

func (f *fakeTransport) Barrier(pull func() []bool) { pull() }
func (f *fakeTransport) Slow(int, float64)          {}
func (f *fakeTransport) Close()                     {}

// fakeLeader starts a 2-node leader over f for the two-way query (select
// on node 0, join on node 1) and records the S1 sequence number of every
// sink emission in arrival order.
func fakeLeader(t *testing.T, f *fakeTransport) (*Leader, func() []uint64) {
	t.Helper()
	q := twoWay()
	core, err := NewNodeCore(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(q, core, physical.Assignment{0, 1}, 2, StaticChooser{Plan: query.Plan{0, 1}}, f)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seqs []uint64
	l.SetResultObserver(func(tuples []*stream.Joined, _ time.Time) {
		mu.Lock()
		defer mu.Unlock()
		for _, j := range tuples {
			if p, ok := j.PartByStream("S1"); ok {
				seqs = append(seqs, p.Seq)
			}
		}
	})
	l.Start()
	return l, func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), seqs...)
	}
}

// s1Batch is an n-tuple S1 batch with sequence numbers from seq.
func s1Batch(seq uint64, n int) *stream.Batch {
	b := stream.NewSizedBatch("S1", 1, n)
	for i := 0; i < n; i++ {
		b.AppendRow(seq+uint64(i), 1, 1, 1)[0] = 10
	}
	return b
}

// drainWithin fails the test if Drain does not return promptly.
func drainWithin(t *testing.T, l *Leader) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		l.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("Drain hung with %d pending", l.Pending())
	}
}

// TestLeaderFailedStageParksAndReplaysInOrder: a stage that fails on its
// node takes the node down in Checkpoint mode. The failed message is still
// whole and parks ahead of everything queued behind it, Pending returns to
// 0 so Drain wakes, and Recover replays the backlog in arrival order.
func TestLeaderFailedStageParksAndReplaysInOrder(t *testing.T) {
	f := &fakeTransport{failing: true}
	l, emitted := fakeLeader(t, f)
	const msgs = 6
	for i := 0; i < msgs; i++ {
		if err := l.Ingest(s1Batch(uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	drainWithin(t, l)
	if p := l.Pending(); p != 0 {
		t.Fatalf("pending %d after the node failed, want 0", p)
	}
	if loads := l.NodeLoads(); !runtime.NodeDown(loads[1]) {
		t.Fatalf("failed node load %v, want the down sentinel", loads[1])
	}
	if c := l.Counters(); c.Produced != 0 || c.TuplesLost != 0 {
		t.Fatalf("produced %d lost %d while parked, want 0/0", c.Produced, c.TuplesLost)
	}
	if err := l.Recover(1); err != nil {
		t.Fatal(err)
	}
	drainWithin(t, l)
	got := emitted()
	if len(got) != msgs {
		t.Fatalf("replayed %d messages, want %d", len(got), msgs)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("replay order %v, want 0..%d in order", got, msgs-1)
		}
	}
	if len(f.respawns) != 1 || f.respawns[0] != chaos.Checkpoint {
		t.Fatalf("respawns %v, want one Checkpoint-mode respawn", f.respawns)
	}
	if res := l.Stop(); res.Produced != msgs || res.TuplesLost != 0 {
		t.Fatalf("produced %d lost %d, want %d/0", res.Produced, res.TuplesLost, msgs)
	}
}

// TestLeaderStageKilledUnderLoseState: a Crash in LoseState mode that
// interrupts a running stage destroys that stage's partials, counting them
// as lost, and wakes a producer waiting on the pending count.
func TestLeaderStageKilledUnderLoseState(t *testing.T) {
	f := &fakeTransport{block: make(chan struct{}), entered: make(chan struct{}, 1)}
	l, _ := fakeLeader(t, f)
	const n = 4
	if err := l.Ingest(s1Batch(0, n)); err != nil {
		t.Fatal(err)
	}
	<-f.entered // node 1's stage is in flight
	woke := make(chan error, 1)
	go func() { woke <- l.AwaitPending(context.Background(), 1, nil) }()
	if err := l.Crash(1, chaos.LoseState); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-woke:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AwaitPending did not wake after the interrupted stage was lost")
	}
	c := l.Counters()
	if c.TuplesLost != n || c.Pending != 0 || c.Crashes != 1 {
		t.Fatalf("lost %d pending %d crashes %d, want %d/0/1", c.TuplesLost, c.Pending, c.Crashes, n)
	}
	if err := l.Recover(1); err != nil {
		t.Fatal(err)
	}
	if len(f.respawns) != 1 || f.respawns[0] != chaos.LoseState {
		t.Fatalf("respawns %v, want one LoseState-mode respawn", f.respawns)
	}
	l.Stop()
}

// TestLeaderSelectivitySurvivesRespawn: the leader accumulates every
// stage's selectivity sample itself, so an operator's observed selectivity
// is continuous across a crash and respawn of its node (whose own counters
// would restart from zero) instead of falling back to the static estimate.
func TestLeaderSelectivitySurvivesRespawn(t *testing.T) {
	f := &fakeTransport{}
	l, _ := fakeLeader(t, f)
	const want = 0.3 // the fake's 3-in-10 sample
	if l.q.Ops[1].Sel == want {
		t.Fatal("static selectivity equals the observed one; the test cannot tell them apart")
	}
	check := func(when string) {
		t.Helper()
		if got := l.core.ObservedSels()[1]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: observed selectivity %v, want %v", when, got, want)
		}
	}
	for i := 0; i < 4; i++ { // 4 stages × 10 examined passes the 32 warm-up
		if err := l.Ingest(s1Batch(uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	drainWithin(t, l)
	check("before the crash")
	if err := l.Crash(1, chaos.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if err := l.Recover(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Ingest(s1Batch(9, 1)); err != nil {
		t.Fatal(err)
	}
	drainWithin(t, l)
	check("after the respawn")
	l.Stop()
}
