package harness

import (
	"testing"
	"time"
)

// fleetSmoke drives a low background write rate through a real fleet (the
// client wire path end to end) and requires a clean run: every scheduled
// op completes without error, latency is recorded, and every drop has an
// explained reason.
func fleetSmoke(t *testing.T, shards int) {
	if testing.Short() {
		t.Skip("boots a real daemon fleet")
	}
	f, err := startFleet(shards, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if got := len(f.addrs); got != 3 {
		t.Fatalf("fleet exposes %d client endpoints, want 3", got)
	}
	res, err := backgroundWrites(writerConfig{
		Addrs:        f.addrs,
		Sessions:     4,
		Rate:         100,
		Duration:     1500 * time.Millisecond,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Completed != res.Scheduled {
		t.Fatalf("completed %d of %d scheduled ops (errors=%d unfinished=%d)",
			res.Completed, res.Scheduled, res.Errors, res.Unfinished)
	}
	if res.P99 <= 0 {
		t.Fatalf("no latency recorded: %+v", res)
	}
	if _, err := checkDrops(f.daemons); err != nil {
		t.Fatal(err)
	}
}

// TestFleetSmoke runs the smoke against one unsharded group.
func TestFleetSmoke(t *testing.T) {
	fleetSmoke(t, 0)
}

// TestShardedFleetSmoke runs the smoke against two shard groups behind
// the meta-group map, so every session routes by key.
func TestShardedFleetSmoke(t *testing.T) {
	fleetSmoke(t, 2)
}
