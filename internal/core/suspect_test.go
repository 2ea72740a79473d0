package core_test

import (
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/obs"
	"newtop/internal/types"
)

// suspects lists the processes a batch of effects suspected, per group.
func suspects(effs []core.Effect) map[types.GroupID][]types.ProcessID {
	out := make(map[types.GroupID][]types.ProcessID)
	for _, eff := range effs {
		if s, ok := eff.(core.SuspectEffect); ok {
			out[s.Group] = append(out[s.Group], s.Susp.Proc)
		}
	}
	return out
}

// Engine.Suspect raises a suspicion in every group whose view holds the
// peer, once, and ignores self, strangers and disabled failure detection.
func TestSuspectHint(t *testing.T) {
	now := time.Unix(0, 0)
	reg := obs.NewRegistry()
	e := core.NewEngine(core.Config{Self: 1, Metrics: reg})
	for g, ms := range map[types.GroupID][]types.ProcessID{1: {1, 2, 3}, 2: {1, 2}, 3: {1, 3}} {
		if _, err := e.BootstrapGroup(now, g, core.Symmetric, ms); err != nil {
			t.Fatal(err)
		}
	}
	if got := suspects(e.Suspect(now, 1)); len(got) != 0 {
		t.Errorf("self-suspicion raised: %v", got)
	}
	if got := suspects(e.Suspect(now, 9)); len(got) != 0 {
		t.Errorf("suspicion of a non-member raised: %v", got)
	}
	got := suspects(e.Suspect(now, 2))
	if len(got) != 2 || len(got[1]) != 1 || len(got[2]) != 1 {
		t.Errorf("Suspect(P2) = %v, want one suspicion in g1 and in g2", got)
	}
	if again := suspects(e.Suspect(now, 2)); len(again) != 0 {
		t.Errorf("repeated hint raised %v", again)
	}
	snap := reg.Snapshot()
	if n := snap.Counters[`newtop_suspicions_total{source="peer_down"}`]; n != 2 {
		t.Errorf("peer_down suspicions = %d, want 2", n)
	}
	if n := snap.Counters[`newtop_suspicions_total{source="silence"}`]; n != 0 {
		t.Errorf("silence suspicions = %d, want 0", n)
	}

	off := core.NewEngine(core.Config{Self: 1, DisableFailureDetection: true})
	if _, err := off.BootstrapGroup(now, 1, core.Symmetric, []types.ProcessID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := suspects(off.Suspect(now, 2)); len(got) != 0 {
		t.Errorf("hint raised %v with failure detection disabled", got)
	}
}

// The Ω scan counts its suspicions under source="silence".
func TestSilenceSuspicionCounted(t *testing.T) {
	now := time.Unix(0, 0)
	reg := obs.NewRegistry()
	e := core.NewEngine(core.Config{Self: 1, Omega: 10 * time.Millisecond, Metrics: reg})
	if _, err := e.BootstrapGroup(now, 1, core.Symmetric, []types.ProcessID{1, 2}); err != nil {
		t.Fatal(err)
	}
	got := suspects(e.Tick(now.Add(time.Second)))
	if len(got[1]) != 1 || got[1][0] != 2 {
		t.Fatalf("silent P2 not suspected: %v", got)
	}
	if n := reg.Snapshot().Counters[`newtop_suspicions_total{source="silence"}`]; n != 1 {
		t.Errorf("silence suspicions = %d, want 1", n)
	}
}
