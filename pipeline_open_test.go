package rld

import (
	"context"
	"os"
	"testing"
)

// TestOpenFailureReleasesWAL pins that a Pipeline whose open fails after
// the engine is built — here a fault plan naming a node the cluster lacks —
// stops the engine: its write-ahead log segment is closed, not leaked, and
// its never-used log directory is removed.
func TestOpenFailureReleasesWAL(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform:", err)
		}
		return len(ents)
	}
	dep := testDeployment(t)
	bad, err := ParseFaultPlan("crash:7@1-2;mode=checkpoint;every=1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	const opens = 5
	before := openFDs()
	for i := 0; i < opens; i++ {
		if p, err := Open(ctx, dep, nil, WithExactlyOnce(dir), WithFaults(bad)); err == nil {
			p.Close(ctx)
			t.Fatal("Open accepted a fault plan naming node 7 of 3")
		}
	}
	// One descriptor of slack for the runtime's own lazily opened files.
	if after := openFDs(); after > before+1 {
		t.Fatalf("%d failed opens left %d more open file descriptors", opens, after-before)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("failed opens left %d entries under the WAL dir (err %v)", len(ents), err)
	}
}
