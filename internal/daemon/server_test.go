package daemon

import (
	"strings"
	"testing"
	"time"

	"newtop"
	"newtop/internal/clientproto"
	"newtop/internal/shard"
)

// TestServeRequestBothModes sends one request table through serveRequest
// on a single-group daemon and on a sharded daemon: both modes reach the
// same op switch, so they validate, serve and report alike. The library
// client rejects bad keys and values before sending, so this is the only
// place the daemon-side checks are exercised.
func TestServeRequestBothModes(t *testing.T) {
	modes := []struct {
		name  string
		start func(t *testing.T) map[newtop.ProcessID]*Daemon
		group newtop.GroupID // the group STATUS names
	}{
		{"single-group", func(t *testing.T) map[newtop.ProcessID]*Daemon {
			_, ds := startCluster(t, 1, nil)
			waitFor(t, 10*time.Second, "serving replica caught up", func() bool {
				resp := ds[1].serveRequest(&clientproto.Request{Op: clientproto.OpStatus})
				return resp.Status == clientproto.StStatus && resp.Ready
			})
			return ds
		}, 1},
		{"sharded", func(t *testing.T) map[newtop.ProcessID]*Daemon {
			// P1 hosts the one arc; P2 only makes the meta group's
			// membership differ from the data group's.
			return startShardedCluster(t, 2, []shard.Assign{
				{Start: 0, Group: shard.FirstDataGroup, Members: []newtop.ProcessID{1}},
			})
		}, shard.MetaGroup},
	}
	big := strings.Repeat("v", clientproto.MaxValueLen+1)
	bad := []clientproto.Request{
		{Op: clientproto.OpPut, Key: "a key", Value: "v"},
		{Op: clientproto.OpPut, Key: "", Value: "v"},
		{Op: clientproto.OpPut, Key: "k", Value: big},
		{Op: clientproto.OpDel, Key: "a\nkey"},
		{Op: clientproto.OpDel, Key: ""},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ds := m.start(t)
			for _, req := range bad {
				if resp := shardDo(t, ds, req); resp.Status != clientproto.StErr {
					t.Errorf("op %d key %q (%d-byte value): %+v, want StErr", req.Op, req.Key, len(req.Value), resp.Status)
				}
			}
			put := clientproto.Request{Op: clientproto.OpPut, Key: "k", Value: "hello world"}
			if resp := shardDo(t, ds, put); resp.Status != clientproto.StOK {
				t.Fatalf("put: %+v", resp)
			}
			for _, op := range []byte{clientproto.OpGet, clientproto.OpBarrierGet} {
				resp := shardDo(t, ds, clientproto.Request{Op: op, Key: "k"})
				if resp.Status != clientproto.StOK || !resp.Found || resp.Value != "hello world" {
					t.Fatalf("read op %d: %+v", op, resp)
				}
			}
			st := shardDo(t, ds, clientproto.Request{Op: clientproto.OpStatus})
			if st.Status != clientproto.StStatus || st.Group != uint64(m.group) || st.Self != 1 || st.Keys != 1 || !st.Ready {
				t.Fatalf("status: %+v, want group %d, self 1, 1 key, ready", st, m.group)
			}
		})
	}
}

// TestShardWithDataDirRefused: shard replicas keep no WAL, so a sharded
// daemon with a data directory would ack writes under Fsync "always"
// that are not on disk. Start must refuse the combination.
func TestShardWithDataDirRefused(t *testing.T) {
	net := newtop.NewNetwork(newtop.WithSeed(7))
	defer net.Close()
	d, err := Start(Config{
		Self:    1,
		Network: net,
		DataDir: t.TempDir(),
		Fsync:   "always",
		Initial: []newtop.ProcessID{1},
		Shard: &ShardConfig{
			Meta:    []newtop.ProcessID{1, 2},
			Initial: []shard.Assign{{Start: 0, Group: shard.FirstDataGroup, Members: []newtop.ProcessID{1}}},
		},
		Logf: quiet,
	})
	if err == nil {
		_ = d.Close()
		t.Fatal("Start accepted Shard together with DataDir")
	}
	if !strings.Contains(err.Error(), "DataDir") {
		t.Fatalf("error does not name the refused combination: %v", err)
	}
}
