package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stream"
)

// heavyBatch builds a batch of n same-key tuples on streamName at t.
func heavyBatch(streamName string, n int, t float64) *stream.Batch {
	b := stream.NewBatch(streamName)
	for j := 0; j < n; j++ {
		ts := stream.Time(t + float64(j)*1e-6)
		b.Append(&stream.Tuple{Stream: streamName, Seq: uint64(j), Ts: ts, Key: 1, Vals: []float64{10}, Arrival: ts})
	}
	return b
}

// TestSessionBackpressure pins the in-flight bound: with MaxPending 1, a
// slow probe batch in flight makes TryIngest reject with ErrBackpressure
// and makes a cancelled-context Ingest return the context error.
func TestSessionBackpressure(t *testing.T) {
	q := twoWay()
	q.Ops[0].Sel = 0.99 // selection passes ~everything through to the join
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.MaxFanout = 4
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 0}}
	s, err := OpenSession(q, 1, pol, SessionOptions{Config: cfg, MaxPending: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm the S2 join window with one hot key, then settle.
	if err := s.Ingest(ctx, heavyBatch("S2", 2000, 0)); err != nil {
		t.Fatal(err)
	}
	s.e.Drain()

	// A 2000-tuple probe against the 2000-tuple hot window takes
	// milliseconds on one worker: while it is in flight the session is at
	// its bound.
	if err := s.Ingest(ctx, heavyBatch("S1", 2000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.TryIngest(heavyBatch("S1", 1, 2)); !errors.Is(err, runtime.ErrBackpressure) {
		t.Fatalf("TryIngest at capacity: %v, want ErrBackpressure", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.Ingest(cancelled, heavyBatch("S1", 1, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ingest with cancelled ctx: %v, want context.Canceled", err)
	}

	rep, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Produced == 0 {
		t.Fatal("probe produced nothing")
	}
	if err := s.TryIngest(heavyBatch("S1", 1, 3)); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("TryIngest after Close: %v, want ErrClosed", err)
	}
}

// flatBatch builds a batch of n same-key tuples all stamped exactly t, so
// a session's virtual clock lands on t with no epsilon.
func flatBatch(streamName string, n int, t float64) *stream.Batch {
	b := stream.NewBatch(streamName)
	for j := 0; j < n; j++ {
		b.Append(&stream.Tuple{Stream: streamName, Seq: uint64(j), Ts: stream.Time(t), Key: 1, Vals: []float64{10}, Arrival: stream.Time(t)})
	}
	return b
}

// blockedSession opens a 1-node, 1-worker session with MaxPending 1 and
// parks one expensive probe in flight, so the next Ingest must block on
// backpressure. The returned session is at capacity until the probe
// drains.
func blockedSession(t *testing.T) *Session {
	t.Helper()
	q := twoWay()
	q.Ops[0].Sel = 0.99
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.MaxFanout = 4
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 0}}
	s, err := OpenSession(q, 1, pol, SessionOptions{Config: cfg, MaxPending: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Ingest(ctx, heavyBatch("S2", 5000, 0)); err != nil {
		t.Fatal(err)
	}
	s.e.Drain()
	// A 5000-tuple probe against the 5000-tuple hot window takes tens of
	// milliseconds on one worker: the session stays at its bound while it
	// is in flight.
	if err := s.Ingest(ctx, heavyBatch("S1", 5000, 1)); err != nil {
		t.Fatal(err)
	}
	return s
}

// awaitBlocked waits until a producer is registered in the engine's
// pending-notifier (i.e. genuinely blocked on backpressure).
func awaitBlocked(t *testing.T, s *Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.e.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never blocked on backpressure")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestSessionCloseWakesBlockedIngest pins the event-driven backpressure
// rework: a producer blocked in Ingest must be woken promptly by Close
// with ErrClosed — not stranded until a poll tick or the drain's end.
func TestSessionCloseWakesBlockedIngest(t *testing.T) {
	s := blockedSession(t)
	res := make(chan error, 1)
	go func() { res <- s.Ingest(context.Background(), heavyBatch("S1", 1, 2)) }()
	awaitBlocked(t, s)
	go s.Close(context.Background())
	select {
	case err := <-res:
		if !errors.Is(err, runtime.ErrClosed) {
			t.Fatalf("blocked Ingest woken by Close: %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Ingest not woken by Close")
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCancelWakesBlockedIngest is the context half of the same
// contract: cancelling a blocked Ingest's context wakes it immediately.
func TestSessionCancelWakesBlockedIngest(t *testing.T) {
	s := blockedSession(t)
	defer s.Close(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- s.Ingest(ctx, heavyBatch("S1", 1, 2)) }()
	awaitBlocked(t, s)
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked Ingest woken by cancel: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Ingest not woken by context cancellation")
	}
}

// TestSessionStatsAdmissionConsistency pins the Stats critical section:
// the counter snapshot is taken under the session lock, so the
// admission-side fields cannot tear — whenever the virtual clock reads t,
// every batch that advanced it to t is already counted. (The old code
// snapshotted counters before acquiring the lock, so Ingested could lag
// VirtualTime by whatever was admitted while Stats waited.)
func TestSessionStatsAdmissionConsistency(t *testing.T) {
	q := twoWay()
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const perBatch = 10
	stop := make(chan struct{})
	bad := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Ingested < perBatch*st.VirtualTime {
				select {
				case bad <- fmt.Sprintf("ingested=%v < %d*virtualTime=%v", st.Ingested, perBatch, perBatch*st.VirtualTime):
				default:
				}
				return
			}
		}
	}()
	ctx := context.Background()
	for i := 1; i <= 300; i++ {
		if err := s.Ingest(ctx, flatBatch("S1", perBatch, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	select {
	case msg := <-bad:
		t.Fatalf("inconsistent Stats snapshot: %s", msg)
	default:
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSessionOffersVirtualTime pins the offerStats clock fix: monitor
// offers made during a session are stamped with the session's virtual
// clock, not wall time, so the observed-stats timeline matches the
// simulator's.
func TestSessionOffersVirtualTime(t *testing.T) {
	q := twoWay()
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Ingest(ctx, flatBatch("S1", 5, 42)); err != nil { // first batch always offers
		t.Fatal(err)
	}
	if got := s.e.Monitor().Snapshot().Time; got != 42 {
		t.Fatalf("monitor offer stamped %v, want the virtual time 42", got)
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSessionManualRecoveryVsScriptedEdge pins the interaction between
// the session's manual Crash/Recover and a scripted fault schedule: a
// caller recovering a node before its scripted recovery edge must not be
// double-booked when the edge later fires (phantom downtime, duplicate
// events).
func TestSessionManualRecoveryVsScriptedEdge(t *testing.T) {
	q := twoWay()
	fp := &chaos.FaultPlan{
		Mode:   chaos.Checkpoint,
		Faults: []chaos.Fault{{Kind: chaos.Crash, Node: 1, At: 100, Until: 200}},
	}
	pol := &runtime.StaticPolicy{PolicyName: "S", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, SessionOptions{Faults: fp, EventBuffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Ingest(ctx, heavyBatch("S1", 5, 120)); err != nil { // fires the crash edge at t=100
		t.Fatal(err)
	}
	if err := s.Ingest(ctx, heavyBatch("S1", 5, 150)); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(1); err != nil { // manual recovery at t=150
		t.Fatal(err)
	}
	if err := s.Ingest(ctx, heavyBatch("S1", 5, 250)); err != nil { // scripted edge at t=200: must no-op
		t.Fatal(err)
	}
	rep, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DownSeconds < 50 || rep.DownSeconds > 50.001 {
		t.Errorf("down seconds = %v, want ≈50 (crash@100, manual recovery@150)", rep.DownSeconds)
	}
	crashes, recoveries := 0, 0
	for ev := range s.Events() {
		switch ev.Kind {
		case runtime.EventCrash:
			crashes++
		case runtime.EventRecovery:
			recoveries++
		}
	}
	if crashes != 1 || recoveries != 1 {
		t.Errorf("crash/recovery events = %d/%d, want 1/1", crashes, recoveries)
	}
}

// TestSessionSwapPolicyValidation pins the swap guard rails.
func TestSessionSwapPolicyValidation(t *testing.T) {
	q := twoWay()
	pol := &runtime.StaticPolicy{PolicyName: "A", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0, 1}}
	s, err := OpenSession(q, 2, pol, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	if err := s.SwapPolicy(nil); err == nil {
		t.Fatal("swap to nil policy accepted")
	}
	bad := &runtime.StaticPolicy{PolicyName: "B", Plan: query.Plan{0, 1}, Assign: physical.Assignment{0}}
	if err := s.SwapPolicy(bad); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("swap to short placement: %v, want ErrBadPlacement", err)
	}
	good := &runtime.StaticPolicy{PolicyName: "B", Plan: query.Plan{1, 0}, Assign: physical.Assignment{1, 0}}
	if err := s.SwapPolicy(good); err != nil {
		t.Fatalf("valid swap: %v", err)
	}
	if st := s.Stats(); st.PolicySwaps != 1 || st.Policy != "B" {
		t.Fatalf("stats after swap: %+v", st)
	}
}
