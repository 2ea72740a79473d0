// Package daemon is the long-lived Newtop service process behind
// cmd/newtopd: one protocol process replicating a key-value store across
// the groups of its lifetime — the bootstrap group, join successors,
// post-heal merged groups — plus the client-facing request listener.
//
// It exists as a package (rather than living inside cmd/newtopd's main)
// so the harness and tests can run real daemons in-process: over a shared
// in-memory Network the full daemon lifecycle — crash exclusion, cut-over,
// partition, heal, reconcile, drain — runs under the race detector and
// under scripted partitions, while clients drive it over real loopback
// TCP through the same code path production uses.
//
// # Group lifecycle
//
// The daemon always serves in its newest group. When a successor group
// replaces the serving one (a join it was invited into, or a post-heal
// merge), service cuts over immediately, and the superseded group is
// drained: after DrainWindow the daemon closes the old replica and leaves
// the old group, so it stops multicasting ω-nulls there and releases the
// group's log state. Without the drain step old groups linger forever —
// every join would permanently add one zombie group's ω-traffic.
//
// # Heals
//
// A detected heal is debounced (Settle) and then the lowest-ID survivor
// among everyone reachable initiates one merged successor group (§5.3)
// that the members reconcile in. A non-initiator arms InitiateTimeout
// while it waits for the initiator's invitation: if the initiator dies
// before forming the group, the waiter strikes it from its healed set,
// clears the reconciliation latch and re-initiates after another settle
// window — so leadership falls through dead candidates to the next-lowest
// survivor instead of stranding the heal forever.
package daemon

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"newtop"
	"newtop/internal/shard"
)

// Config configures a daemon.
type Config struct {
	// Self is this process's unique non-zero identifier.
	Self newtop.ProcessID

	// Network attaches the daemon to an in-memory network (tests,
	// multi-daemon single binaries). Exactly one of Network or
	// ListenAddr must be set.
	Network *newtop.Network
	// ListenAddr is the inter-daemon TCP listen address.
	ListenAddr string
	// Peers maps peer process IDs to their inter-daemon TCP addresses.
	Peers map[newtop.ProcessID]string

	// ClientAddr is the client-protocol TCP listen address ("" disables
	// the client listener; use ":0" for an ephemeral port).
	ClientAddr string
	// PeerClientAddrs maps peer process IDs to their CLIENT addresses —
	// the redirect hints a NOT_SERVING response carries. Optional; also
	// settable later via SetPeerClientAddrs (addresses are often only
	// known after every daemon has bound its ephemeral port).
	PeerClientAddrs map[newtop.ProcessID]string

	// MetricsAddr is the introspection HTTP listen address ("" disables;
	// use ":0" for an ephemeral port). The endpoint serves /metrics in
	// the Prometheus text format and the pprof suite under /debug/pprof/.
	MetricsAddr string

	// TraceSampleEvery enables delivery-stream tracing, passed through to
	// newtop.Config: one in every N data messages is stamped through its
	// lifecycle stages, feeding the newtop_trace_stage_ns histograms
	// (0 disables).
	TraceSampleEvery uint64

	// Mode is the serving groups' ordering discipline (default Symmetric).
	Mode newtop.OrderMode
	// Omega is the time-silence interval ω (see newtop.Config).
	Omega time.Duration
	// HealProbeInterval is the heal-probe cadence (see newtop.Config).
	HealProbeInterval time.Duration

	// DataDir, when non-empty, makes the daemon durable: every applied
	// command is written to a per-group WAL under this directory, state
	// snapshots are cut periodically, and a restarted daemon recovers its
	// store locally and rejoins its former partners via the reconcile
	// fast path instead of a full snapshot transfer. Single-group mode
	// only: Start refuses DataDir together with Shard, because shard
	// replicas have no WAL and would ack writes that are not on disk.
	DataDir string
	// Fsync selects the WAL flush policy: "always" (default — an acked
	// write is on stable media), "interval" or "never".
	Fsync string
	// FsyncInterval is the flush cadence under Fsync="interval"
	// (default 50ms).
	FsyncInterval time.Duration
	// SnapshotEvery cuts an on-disk snapshot every N applied entries
	// (default 4096; snapshots are also always cut when a state transfer
	// or reconciliation completes).
	SnapshotEvery int

	// Join, when non-zero, joins a running cluster by forming this new
	// group ID and catching up, instead of bootstrapping group 1.
	Join newtop.GroupID
	// Initial lists the bootstrap group 1 members (default: self plus
	// every peer). Ignored when joining.
	Initial []newtop.ProcessID

	// Merge selects the post-partition merge policy: "lww" (default) or
	// "prefer-low".
	Merge string
	// Settle is the debounce between a heal signal and initiating the
	// merged group (default 2s).
	Settle time.Duration
	// DrainWindow is how long a superseded group lingers after cut-over
	// before the daemon closes its replica and leaves it (default 2s).
	// It must comfortably exceed the time an in-flight old-group write
	// needs to come back through the total order.
	DrainWindow time.Duration
	// InitiateTimeout is how long a non-initiator waits for the heal
	// initiator's invitation before assuming it dead and taking over
	// (default 5×Settle).
	InitiateTimeout time.Duration

	// RingThreshold and RingPullAfter configure ring payload
	// dissemination, passed through to newtop.Config: payloads at or
	// above the threshold travel the view ring instead of fanning out
	// point-to-point (0 disables).
	RingThreshold int
	RingPullAfter time.Duration

	// Shard, when non-nil, runs the daemon in sharded mode: the keyspace
	// is partitioned by hash across many data groups per the replicated
	// shard map, instead of one store in one lineage of groups. See
	// shard.go. Join, Merge and the heal machinery do not apply in this
	// mode (shard groups are fixed-membership; rebalancing forms new
	// groups, it never rejoins old ones). Shard replicas keep no WAL, so
	// Start refuses Shard together with DataDir.
	Shard *ShardConfig

	// Logf receives the daemon's log lines (default log.Printf; supply
	// a no-op to silence).
	Logf func(format string, args ...any)
	// OnEvent, when set, observes every membership event after the
	// daemon's own handling — the test tap.
	OnEvent func(newtop.Event)
}

func (cfg Config) withDefaults() Config {
	if cfg.Mode == 0 {
		cfg.Mode = newtop.Symmetric
	}
	if cfg.Merge == "" {
		cfg.Merge = "lww"
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 2 * time.Second
	}
	if cfg.DrainWindow <= 0 {
		cfg.DrainWindow = 2 * time.Second
	}
	if cfg.InitiateTimeout <= 0 {
		cfg.InitiateTimeout = 5 * cfg.Settle
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 4096
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return cfg
}

// invitation is a formation invite routed from AcceptInvite to the
// invite-handling goroutine, which attaches a replica while the vote is
// still in flight.
type invitation struct {
	g       newtop.GroupID
	coord   newtop.ProcessID // formation coordinator
	members []newtop.ProcessID
}

// Daemon is one running Newtop service process.
type Daemon struct {
	cfg  Config
	proc *newtop.Process
	kv   *newtop.KV
	srv  *clientServer  // nil when ClientAddr == ""
	ms   *metricsServer // nil when MetricsAddr == ""

	// Durability (Config.DataDir != ""). recoveredG is non-zero from a
	// successful local recovery until the daemon has rejoined — it marks
	// the group incarnation the on-disk state came from, and while set the
	// announce loop probes the old membership so a survivor's exclusion
	// detector fires and pulls us into the merged successor group.
	// recoveredApplied is the lineage apply count the restored state
	// carries (the WithAppliedBase for the rejoin replica).
	store            *newtop.DurableStore
	rm               recoveryMetrics
	dlogs            map[newtop.GroupID]*newtop.DurableLog
	recoveredG       newtop.GroupID
	recoveredMembers []newtop.ProcessID
	recoveredApplied uint64

	// Sharded mode (Config.Shard != nil). smap is set once before any
	// concurrency starts, so reading the pointer is race-free; the Map
	// itself is internally locked. Shard replicas live in reps alongside
	// the meta replica; shardKVs maps each hosted data group to its own
	// store (the lineage kv field is unused in this mode).
	smap     *shard.Map
	shardKVs map[newtop.GroupID]*newtop.KV
	moveMu   sync.Mutex // serializes MoveRange drivers on this daemon

	mu          sync.Mutex
	reps        map[newtop.GroupID]*newtop.Replica
	recon       map[newtop.GroupID]bool // groups attached in reconcile mode
	serving     newtop.GroupID
	removed     map[newtop.GroupID]map[newtop.ProcessID]bool
	healed      map[newtop.GroupID]map[newtop.ProcessID]bool
	reconciling map[newtop.GroupID]bool
	healTimer   map[newtop.GroupID]*time.Timer
	initWait    map[newtop.GroupID]*time.Timer // waiting on a heal initiator
	drains      map[newtop.GroupID]*time.Timer // superseded groups awaiting leave
	clientAddrs map[newtop.ProcessID]string
	// pendingInvites counts formation votes cast (AcceptInvite returned
	// true) whose successor replica has not been attached yet. While one
	// is outstanding, client writes are refused with RETRY: a write
	// proposed into the superseded group AFTER our formation vote is no
	// longer covered by the cross-group delivery gate's "before any
	// snapshot cut" guarantee, so acking it could hide it from a joiner
	// catching up in the successor group.
	pendingInvites int
	closed         bool

	invites chan invitation
	done    chan struct{} // closed by Close; releases drain waiters
	wg      sync.WaitGroup
}

// Start launches the daemon: protocol process, group bootstrap or join,
// event handling, and (when configured) the client listener.
func Start(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == 0 {
		return nil, errors.New("daemon: Config.Self must be non-zero")
	}
	switch cfg.Merge {
	case "lww", "prefer-low":
	default:
		return nil, fmt.Errorf("daemon: unknown merge policy %q", cfg.Merge)
	}
	if cfg.Shard != nil && cfg.DataDir != "" {
		return nil, errors.New("daemon: sharded mode keeps no WAL; Shard and DataDir cannot be combined")
	}
	d := &Daemon{
		cfg:         cfg,
		kv:          newtop.NewKV(),
		dlogs:       make(map[newtop.GroupID]*newtop.DurableLog),
		shardKVs:    make(map[newtop.GroupID]*newtop.KV),
		reps:        make(map[newtop.GroupID]*newtop.Replica),
		recon:       make(map[newtop.GroupID]bool),
		removed:     make(map[newtop.GroupID]map[newtop.ProcessID]bool),
		healed:      make(map[newtop.GroupID]map[newtop.ProcessID]bool),
		reconciling: make(map[newtop.GroupID]bool),
		healTimer:   make(map[newtop.GroupID]*time.Timer),
		initWait:    make(map[newtop.GroupID]*time.Timer),
		drains:      make(map[newtop.GroupID]*time.Timer),
		clientAddrs: make(map[newtop.ProcessID]string),
		invites:     make(chan invitation, 16),
		done:        make(chan struct{}),
	}
	for p, a := range cfg.PeerClientAddrs {
		if p != cfg.Self {
			d.clientAddrs[p] = a
		}
	}
	proc, err := newtop.Start(newtop.Config{
		Self:              cfg.Self,
		Network:           cfg.Network,
		ListenAddr:        cfg.ListenAddr,
		Peers:             cfg.Peers,
		Omega:             cfg.Omega,
		HealProbeInterval: cfg.HealProbeInterval,
		RingThreshold:     cfg.RingThreshold,
		RingPullAfter:     cfg.RingPullAfter,
		TraceSampleEvery:  cfg.TraceSampleEvery,
		AcceptInvite: func(g newtop.GroupID, coord newtop.ProcessID, members []newtop.ProcessID) bool {
			// Counted BEFORE the vote takes effect (this callback runs on
			// the node loop, synchronously with the vote): from here until
			// the successor replica attaches, writes must not be acked
			// into the soon-superseded serving group.
			d.mu.Lock()
			d.pendingInvites++
			d.mu.Unlock()
			select {
			case d.invites <- invitation{g, coord, append([]newtop.ProcessID(nil), members...)}:
				return true
			default:
				// Joining a group we would never replicate is worse than
				// vetoing the formation: the initiator can retry.
				d.mu.Lock()
				d.pendingInvites--
				d.mu.Unlock()
				return false
			}
		},
	})
	if err != nil {
		return nil, err
	}
	d.proc = proc
	d.rm = newRecoveryMetrics(proc.MetricsRegistry())
	if cfg.DataDir != "" {
		if err := d.openStorage(); err != nil {
			_ = proc.Close()
			return nil, err
		}
	}

	if err := d.startGroups(); err != nil {
		_ = proc.Close()
		return nil, err
	}
	if cfg.ClientAddr != "" {
		srv, err := newClientServer(d, cfg.ClientAddr)
		if err != nil {
			_ = proc.Close()
			return nil, err
		}
		d.srv = srv
	}
	if cfg.MetricsAddr != "" {
		ms, err := newMetricsServer(d, cfg.MetricsAddr)
		if err != nil {
			if d.srv != nil {
				d.srv.close()
			}
			_ = proc.Close()
			return nil, err
		}
		d.ms = ms
	}

	d.wg.Add(3)
	go d.handleInvites()
	go d.drainDeliveries()
	go d.handleEvents()
	if d.smap != nil {
		// The client listener is bound: publish our client address (the
		// redirect hints other daemons hand out) and the initial shard
		// layout into the meta order.
		d.wg.Add(1)
		go d.publishShardIdentity()
	}
	return d, nil
}

// startGroups bootstraps group 1 or forms the join group; in sharded
// mode it bootstraps the meta group and this daemon's shard groups
// instead.
func (d *Daemon) startGroups() error {
	if d.cfg.Shard != nil {
		return d.startShardGroups()
	}
	if d.recoveredG != 0 {
		return d.startRecovered()
	}
	members := []newtop.ProcessID{d.cfg.Self}
	for p := range d.cfg.Peers {
		members = append(members, p)
	}
	if d.cfg.Network != nil && len(d.cfg.Peers) == 0 {
		// In-memory daemons have no address book; Initial is the
		// authority on who exists.
		for _, p := range d.cfg.Initial {
			if p != d.cfg.Self {
				members = append(members, p)
			}
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	if d.cfg.Join == 0 {
		boot := members
		if len(d.cfg.Initial) > 0 {
			boot = append([]newtop.ProcessID(nil), d.cfg.Initial...)
			sort.Slice(boot, func(i, j int) bool { return boot[i] < boot[j] })
		}
		if err := d.replicate(1); err != nil {
			return err
		}
		if err := d.proc.BootstrapGroup(1, d.cfg.Mode, boot); err != nil {
			return err
		}
		d.logf("P%d up; group g1 (%s) members %v", d.cfg.Self, d.cfg.Mode, boot)
		return nil
	}
	g := d.cfg.Join
	if err := d.replicate(g, newtop.CatchUp()); err != nil {
		return err
	}
	if err := d.proc.CreateGroup(g, d.cfg.Mode, members); err != nil {
		return err
	}
	d.logf("P%d up; joining via new group g%d (%s) members %v", d.cfg.Self, g, d.cfg.Mode, members)
	return nil
}

// Proc exposes the underlying protocol process (observability).
func (d *Daemon) Proc() *newtop.Process { return d.proc }

// KV exposes the daemon's replicated store (observability; use the client
// protocol for consistent reads).
func (d *Daemon) KV() *newtop.KV { return d.kv }

// ClientAddr returns the bound client-listener address ("" when the
// listener is disabled).
func (d *Daemon) ClientAddr() string {
	if d.srv == nil {
		return ""
	}
	return d.srv.addr()
}

// MetricsAddr returns the bound introspection-listener address ("" when
// the listener is disabled).
func (d *Daemon) MetricsAddr() string {
	if d.ms == nil {
		return ""
	}
	return d.ms.addr()
}

// SetPeerClientAddrs installs the peer client-address book used for
// NOT_SERVING redirect hints.
func (d *Daemon) SetPeerClientAddrs(addrs map[newtop.ProcessID]string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for p, a := range addrs {
		if p != d.cfg.Self {
			d.clientAddrs[p] = a
		}
	}
}

// ServingGroup returns the group the daemon currently serves in.
func (d *Daemon) ServingGroup() newtop.GroupID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.serving
}

// Replica returns the serving replica and its group (nil before the first
// group attaches).
func (d *Daemon) Replica() (*newtop.Replica, newtop.GroupID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reps[d.serving], d.serving
}

// Close stops the daemon: client listener, timers, protocol process.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.done)
	for _, t := range d.healTimer {
		t.Stop()
	}
	for _, t := range d.initWait {
		t.Stop()
	}
	for _, t := range d.drains {
		t.Stop()
	}
	reps := make([]*newtop.Replica, 0, len(d.reps))
	for _, r := range d.reps {
		reps = append(reps, r)
	}
	d.mu.Unlock()

	// Replicas close FIRST: a client handler parked in a Barrier or an
	// ack-wait is released by its replica's shutdown (ErrClosed), not by
	// its connection closing — the other order would leave Close stuck
	// behind a barrier that needs the total order to advance, which
	// during a partition means whole suspicion/exclusion rounds.
	for _, r := range reps {
		_ = r.Close()
	}
	if d.srv != nil {
		d.srv.close()
	}
	if d.ms != nil {
		d.ms.close()
	}
	err := d.proc.Close()
	d.wg.Wait()
	if d.store != nil {
		// Last: the replicas' apply loops have drained, so closing flushes
		// the final appends (a crashed store's logs no-op here).
		if serr := d.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

func (d *Daemon) logf(format string, args ...any) { d.cfg.Logf(format, args...) }

// register records a replica and cuts service over when it supersedes the
// serving group, scheduling the superseded groups' drains. Caller holds
// mu.
//
// The drain clock starts only once the superseding replica is READY —
// for a reconcile or catch-up replica that is well after registration,
// and never if its group's formation keeps failing. Arming it at
// cut-over instead would let a failed merged-group formation leave the
// healthy base group behind: the heal-retry path needs that group's
// view, and losing it wedges the daemon with nothing serving.
//
// On readiness, EVERY remaining older group is scheduled, not just the
// immediately superseded one: in a chain g1→g2→g3 where g2's replica is
// closed before it ever became ready (drained mid-catch-up by g3's
// arrival), a drain keyed to g2's readiness alone would strand g1
// forever.
func (d *Daemon) registerLocked(g newtop.GroupID, rep *newtop.Replica) {
	d.reps[g] = rep
	if g > d.serving {
		d.serving = g // always serve in the newest group
		// closed is set under mu before Close waits on wg, so testing it
		// here makes the Add race-free.
		if !d.closed {
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				select {
				case <-rep.Ready():
				case <-d.done:
					return
				}
				// A plain (authoritative) replica is ready the moment it
				// attaches — before its group's §5.3 formation has even
				// voted. Wait for the group itself: draining the old
				// groups on the promise of a successor that never forms
				// would leave the daemon with nothing (the formation-
				// failure rollback deregisters the successor, which is
				// also what releases this wait).
				for !d.proc.GroupReady(g) {
					d.mu.Lock()
					_, still := d.reps[g]
					closed := d.closed
					d.mu.Unlock()
					if closed || !still {
						return
					}
					select {
					case <-time.After(20 * time.Millisecond):
					case <-d.done:
						return
					}
				}
				d.mu.Lock()
				if !d.closed {
					for og := range d.reps {
						og := og
						if og < g && og < d.serving && d.drains[og] == nil {
							d.drains[og] = time.AfterFunc(d.cfg.DrainWindow, func() { d.leaveSuperseded(og) })
						}
					}
				}
				d.mu.Unlock()
			}()
		}
	}
}

// leaveSuperseded retires a group the service cut over from: close its
// replica (rerouting any residual deliveries) and leave it, so this
// daemon stops contributing ω-nulls and log state to a group nobody
// serves in anymore.
func (d *Daemon) leaveSuperseded(old newtop.GroupID) {
	d.mu.Lock()
	if d.closed || old >= d.serving {
		d.mu.Unlock()
		return
	}
	rep := d.reps[old]
	delete(d.reps, old)
	delete(d.recon, old)
	delete(d.drains, old)
	delete(d.removed, old)
	delete(d.healed, old)
	delete(d.reconciling, old)
	if t := d.healTimer[old]; t != nil {
		t.Stop()
		delete(d.healTimer, old)
	}
	if t := d.initWait[old]; t != nil {
		t.Stop()
		delete(d.initWait, old)
	}
	d.mu.Unlock()
	if rep != nil {
		_ = rep.Close()
	}
	if err := d.proc.LeaveGroup(old); err == nil {
		d.logf("left superseded group g%d (drain window passed)", old)
	}
	// The old incarnation's on-disk stream is garbage once the serving
	// one is anchored by a baseline snapshot.
	d.prune()
}

// replicate attaches an authoritative (or catch-up) replica for g.
func (d *Daemon) replicate(g newtop.GroupID, opts ...newtop.ReplicaOption) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		// Close has already swept d.reps; a replica attached now would
		// never be closed, leaving client handlers parked in it.
		return newtop.ErrClosed
	}
	if _, ok := d.reps[g]; ok {
		return nil
	}
	dopts, err := d.durableOptsLocked(g)
	if err != nil {
		return err
	}
	rep, err := newtop.Replicate(d.proc, g, d.kv, append(opts, dopts...)...)
	if err != nil {
		return err
	}
	d.registerLocked(g, rep)
	return nil
}

func (d *Daemon) mkPolicy(lowSide uint64) newtop.MergePolicy {
	if d.cfg.Merge == "prefer-low" {
		return newtop.PreferSide(lowSide)
	}
	return newtop.LastWriterWins()
}

// reconcile attaches a reconciling replica for the merged group g.
func (d *Daemon) reconcile(g newtop.GroupID, members []newtop.ProcessID, side, lowSide uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return newtop.ErrClosed // see replicate
	}
	if _, ok := d.reps[g]; ok {
		return nil
	}
	dopts, err := d.durableOptsLocked(g)
	if err != nil {
		return err
	}
	rep, err := newtop.Reconcile(d.proc, g, d.kv, d.mkPolicy(lowSide), members,
		append(dopts, newtop.WithPartitionSide(side))...)
	if err != nil {
		return err
	}
	d.recon[g] = true
	d.registerLocked(g, rep)
	// The merged group exists: whoever we were waiting on delivered.
	if t := d.initWait[g-1]; t != nil {
		t.Stop()
		delete(d.initWait, g-1)
	}
	return nil
}

// mySide returns this daemon's partition tag for group g: the lowest
// member of its current (pre-merge) view.
func (d *Daemon) mySide(g newtop.GroupID) uint64 {
	if v, err := d.proc.View(g); err == nil && len(v.Members) > 0 {
		return uint64(v.Members[0])
	}
	return uint64(d.cfg.Self)
}

// initiateReconcile fires Settle after the last heal signal for g: if
// this daemon is the lowest ID among everyone now reachable, it forms the
// merged successor group; otherwise it waits for the initiator's
// invitation — bounded by InitiateTimeout (see takeover).
func (d *Daemon) initiateReconcile(g newtop.GroupID) {
	v, err := d.proc.View(g)
	if err != nil {
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.reconciling[g] = true
	delete(d.healTimer, g)
	members := append([]newtop.ProcessID(nil), v.Members...)
	rejoining := 0
	for p := range d.healed[g] {
		if !v.Contains(p) { // guard and list must agree: no duplicates
			rejoining++
			members = append(members, p)
		}
	}
	if rejoining == 0 {
		// Every healed peer died (or re-entered the view) since the heal
		// was detected — there is no far side left to merge with, and a
		// successor group would duplicate the current view. Clear the
		// latch; a future heal signal starts over.
		delete(d.reconciling, g)
		d.mu.Unlock()
		d.logf("heal of g%d: no live healed peer remains; staying put", g)
		return
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if members[0] != d.cfg.Self {
		initiator := members[0]
		if d.initWait[g] == nil {
			d.initWait[g] = time.AfterFunc(d.cfg.InitiateTimeout, func() { d.takeover(g, initiator) })
		}
		d.mu.Unlock()
		d.logf("heal of g%d: waiting for P%d to initiate the merged group", g, initiator)
		return
	}
	d.mu.Unlock()
	next := g + 1
	d.logf("heal of g%d: initiating merged successor group g%d = %v (%s merge)", g, next, members, d.cfg.Merge)
	if err := d.reconcile(next, members, d.mySide(g), uint64(members[0])); err != nil {
		d.logf("reconcile g%d: %v", next, err)
		return
	}
	if err := d.proc.CreateGroup(next, d.cfg.Mode, members); err != nil {
		d.logf("form g%d: %v", next, err)
	}
}

// takeover runs when the awaited heal initiator never formed the merged
// group within InitiateTimeout: strike it from the healed set (a dead
// far-side peer must stop outranking live survivors; a dead same-side
// peer leaves the view on its own), clear the latch and re-initiate after
// another settle window — the next-lowest survivor takes over.
func (d *Daemon) takeover(g newtop.GroupID, failed newtop.ProcessID) {
	d.mu.Lock()
	delete(d.initWait, g)
	if d.closed || !d.reconciling[g] {
		d.mu.Unlock()
		return
	}
	if _, ok := d.reps[g+1]; ok {
		// The merged group did arrive; reconciliation is in flight.
		d.mu.Unlock()
		return
	}
	if h := d.healed[g]; h != nil {
		delete(h, failed)
	}
	delete(d.reconciling, g)
	if d.healTimer[g] == nil {
		d.healTimer[g] = time.AfterFunc(d.cfg.Settle, func() { d.initiateReconcile(g) })
	}
	d.mu.Unlock()
	d.logf("heal of g%d: initiator P%d never formed the merged group; retrying without it", g, failed)
}

// handleInvites attaches replicas for groups this daemon is invited into,
// in reconcile mode when the member list includes peers we had excluded
// (a post-heal merge), plainly otherwise (a join successor).
func (d *Daemon) handleInvites() {
	defer d.wg.Done()
	for inv := range d.invites {
		d.handleInvite(inv)
		d.mu.Lock()
		d.pendingInvites--
		d.mu.Unlock()
	}
}

func (d *Daemon) handleInvite(inv invitation) {
	if d.smap != nil && shard.IsShardGroup(inv.g) {
		d.attachShardInvite(inv.g)
		return
	}
	d.mu.Lock()
	rejoining := false
	recovered := d.recoveredG
	var low = d.cfg.Self
	for _, m := range inv.members {
		if m < low {
			low = m
		}
		for _, rm := range d.removed {
			if rm[m] {
				rejoining = true
			}
		}
	}
	serving := d.serving
	d.mu.Unlock()
	if !rejoining && inv.coord != d.cfg.Self {
		// The removed-peer record is not the whole story: a member we
		// never excluded ourselves (it was excluded before we joined, or
		// its exclusion record died with a group we have since left) can
		// still be merging back in. The coordinator tells a merge from a
		// join — a joiner coordinates its own join, so strangers in a
		// formation coordinated by an incumbent are a far side to
		// reconcile with, and every member must reconcile for the
		// summary exchange to complete.
		if v, err := d.proc.View(serving); err == nil && v.Contains(inv.coord) {
			for _, m := range inv.members {
				if !v.Contains(m) && m != d.cfg.Self {
					rejoining = true
					break
				}
			}
		}
	}
	if recovered != 0 {
		if inv.g <= recovered {
			d.discardRecovered(inv)
			return
		}
		// The survivors are pulling us into the merged successor group:
		// reconcile our restored state against theirs. Identical states
		// short-circuit after the digest summaries — the fast path — and
		// divergence (writes we lost under fsync=interval/never, or
		// survivors' progress) costs only the differing buckets, never a
		// full snapshot stream.
		if err := d.reconcile(inv.g, inv.members, uint64(d.cfg.Self), uint64(low)); err != nil {
			d.logf("reconcile g%d: %v", inv.g, err)
		} else {
			d.logf("rejoining via merged group g%d = %v (recovered from g%d)", inv.g, inv.members, recovered)
		}
		return
	}
	if rejoining {
		if err := d.reconcile(inv.g, inv.members, d.mySide(serving), uint64(low)); err != nil {
			d.logf("reconcile g%d: %v", inv.g, err)
		} else {
			d.logf("reconciling into merged group g%d = %v", inv.g, inv.members)
		}
		return
	}
	if err := d.replicate(inv.g); err != nil {
		d.logf("replicate g%d: %v", inv.g, err)
	} else {
		d.logf("replicating successor group g%d (service cut over)", inv.g)
	}
}

// drainDeliveries consumes the shared delivery channel: groups without a
// replica (e.g. a raw Submit from a peer, or the residue of a drained
// group's subscription) must not accumulate unread.
func (d *Daemon) drainDeliveries() {
	defer d.wg.Done()
	for range d.proc.Deliveries() {
	}
}

// handleEvents drives the daemon's membership state machine.
func (d *Daemon) handleEvents() {
	defer d.wg.Done()
	defer close(d.invites)
	for ev := range d.proc.Events() {
		d.handleEvent(ev)
		if d.cfg.OnEvent != nil {
			d.cfg.OnEvent(ev)
		}
	}
}

func (d *Daemon) handleEvent(ev newtop.Event) {
	switch ev.Kind {
	case newtop.EventViewChanged:
		d.logf("view change %v: %v (removed %v)", ev.Group, ev.View, ev.Removed)
		d.mu.Lock()
		rm := d.removed[ev.Group]
		if rm == nil {
			rm = map[newtop.ProcessID]bool{}
			d.removed[ev.Group] = rm
		}
		for _, p := range ev.Removed {
			rm[p] = true
		}
		d.mu.Unlock()
		d.saveMeta(ev.Group)
	case newtop.EventSuspected:
		d.logf("suspecting P%d in %v", ev.Suspect, ev.Group)
	case newtop.EventGroupReady:
		d.logf("group %v ready", ev.Group)
		d.saveMeta(ev.Group)
	case newtop.EventFormationFailed:
		d.logf("formation of %v failed: %s", ev.Group, ev.Reason)
		// Roll the cut-over back: if we had already registered a replica
		// for the failed group (service always cuts over at registration
		// time), deregister it and fall back to the newest surviving
		// group — without this, serving stays pinned to a group that
		// never formed and every client write StRetries forever. Any
		// drain armed on the failed group's account is cancelled.
		d.mu.Lock()
		var failedRep *newtop.Replica
		if rep, ok := d.reps[ev.Group]; ok && !d.closed {
			failedRep = rep
			delete(d.reps, ev.Group)
			delete(d.recon, ev.Group)
			delete(d.shardKVs, ev.Group)
			if d.serving == ev.Group {
				d.serving = 0
				for og := range d.reps {
					if og > d.serving {
						d.serving = og
					}
				}
				for og, t := range d.drains {
					if og >= d.serving {
						t.Stop()
						delete(d.drains, og)
					}
				}
				d.logf("formation of g%d failed; serving falls back to g%d", ev.Group, d.serving)
			}
		}
		// A failed merged-group formation (successor of a group we were
		// reconciling) must not strand the heal: retry after another
		// settle window.
		if base := ev.Group - 1; d.reconciling[base] && !d.closed {
			delete(d.reconciling, base)
			if t := d.initWait[base]; t != nil {
				t.Stop()
				delete(d.initWait, base)
			}
			if d.healTimer[base] == nil {
				d.healTimer[base] = time.AfterFunc(d.cfg.Settle, func() { d.initiateReconcile(base) })
			}
		}
		d.mu.Unlock()
		if failedRep != nil {
			_ = failedRep.Close()
		}
	case newtop.EventStateTransferred:
		d.logf("state transferred into %v (snapshot from P%d)", ev.Group, ev.Peer)
	case newtop.EventHealDetected:
		d.logf("partition healed: P%d reachable again (was excluded from %v)", ev.Peer, ev.Group)
		d.mu.Lock()
		g := ev.Group
		if _, ok := d.reps[g]; !ok && g != d.serving {
			// The exclusion this signal revives can be from an incarnation
			// we have since drained and left — a recovered process
			// announces itself tagged with its OLD group. The merge
			// nevertheless happens in the serving lineage.
			g = d.serving
		}
		h := d.healed[g]
		if h == nil {
			h = map[newtop.ProcessID]bool{}
			d.healed[g] = h
		}
		h[ev.Peer] = true
		// Debounced initiation: (re)arm the timer on every heal signal,
		// so the merged group forms Settle after the LAST peer is
		// rediscovered — slow probes from the far side still make it
		// into the member list — and the cut-over quiesce gets its
		// drain window.
		if g == d.serving && !d.reconciling[g] && !d.closed {
			if t := d.healTimer[g]; t != nil {
				t.Reset(d.cfg.Settle)
			} else {
				d.healTimer[g] = time.AfterFunc(d.cfg.Settle, func() { d.initiateReconcile(g) })
			}
		}
		d.mu.Unlock()
	case newtop.EventReconciled:
		d.mu.Lock()
		rep, g := d.reps[d.serving], d.serving
		recovering := d.recoveredG != 0 && d.recon[ev.Group]
		if recovering {
			d.recoveredG = 0 // rejoined; the announce loop stands down
		}
		d.mu.Unlock()
		if recovering {
			d.rm.fastpath.Inc()
			d.logf("recovery complete: rejoined via reconcile into g%d", ev.Group)
		}
		d.saveMeta(ev.Group)
		if rep != nil && g == ev.Group {
			d.logf("reconciled into g%d: applied=%d keys=%d digest=%016x",
				g, rep.AppliedSeq(), d.kv.Len(), rep.Digest())
		} else {
			d.logf("reconciled into g%d", ev.Group)
		}
	}
}

// peerHint returns some peer's client address for a NOT_SERVING redirect
// ("" when none is known).
func (d *Daemon) peerHint() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, a := range d.clientAddrs {
		return a
	}
	return ""
}
