// Package newtop is a from-scratch Go implementation of Newtop, the
// fault-tolerant group communication protocol suite of Ezhilchelvan,
// Macêdo and Shrivastava (ICDCS 1995).
//
// Newtop provides causality-preserving total-order multicast to process
// groups in an asynchronous network. Processes may belong to many groups
// at once — total order extends across overlapping groups — and each group
// independently chooses an ordering discipline:
//
//   - Symmetric: fully decentralised ordering by Lamport numbers and
//     receive vectors (§4.1 of the paper); sends never block.
//   - Asymmetric: a deterministic per-view sequencer orders messages
//     (§4.2); cheap for large groups with few senders.
//   - Atomic: per-sender FIFO with view-synchronous membership but no
//     inter-sender ordering (the logical-clock gate is bypassed, fig. 3).
//
// The membership service tolerates crashes and network partitions without
// requiring a primary partition: a partitioned group stabilises into
// disjoint subgroups, each internally consistent, and the application
// decides their fate. New groups form dynamically with the §5.3 two-phase
// protocol; "joining" a group is subsumed by forming a new one.
//
// # Quick start
//
//	net := newtop.NewNetwork()                  // in-memory transport
//	a, _ := newtop.Start(newtop.Config{Self: 1, Network: net})
//	b, _ := newtop.Start(newtop.Config{Self: 2, Network: net})
//	members := []newtop.ProcessID{1, 2}
//	a.BootstrapGroup(1, newtop.Symmetric, members)
//	b.BootstrapGroup(1, newtop.Symmetric, members)
//	a.Submit(1, []byte("hello"))
//	d := <-b.Deliveries()                       // total-order delivery
//
// For real deployments set ListenAddr and Peers instead of Network: the
// same protocol runs over TCP connections between machines.
//
// # Replicated state machines
//
// Total order makes replication a one-liner: Replicate attaches a
// deterministic StateMachine to a group and applies every member's
// commands in the agreed order, so replicas stay byte-identical.
//
//	kv := newtop.NewKV()
//	rep, _ := newtop.Replicate(a, 1, kv)        // before BootstrapGroup
//	a.BootstrapGroup(1, newtop.Symmetric, members)
//	rep.Propose([]byte("put user alice"))
//	rep.Read(func(newtop.StateMachine) { v, _ := kv.Get("user"); _ = v })
//
// To add or move a replica, form a new group overlapping the old one (the
// paper's fig. 1 migration) and Replicate it everywhere — the newcomer
// with the CatchUp option. State transfer (snapshot chunks plus a replay
// tail) travels inside the same total order as ongoing writes, so the
// newcomer converges to the exact replicated state with no write pause.
// Replica.Digest fingerprints state for divergence detection, e.g. across
// the two sides of a healed partition.
package newtop

import (
	"errors"
	"fmt"
	"time"

	"newtop/internal/core"
	"newtop/internal/node"
	"newtop/internal/obs"
	"newtop/internal/rsm"
	"newtop/internal/transport"
	"newtop/internal/transport/tcpnet"
	"newtop/internal/types"
)

// Re-exported identifier and view types.
type (
	// ProcessID identifies a process; the total order over IDs drives
	// sequencer election and delivery tie-breaking.
	ProcessID = types.ProcessID
	// GroupID identifies a process group.
	GroupID = types.GroupID
	// View is a group membership view: the set of processes a member
	// currently believes functioning and connected.
	View = types.View
	// Delivery is one application message delivered in the agreed order.
	Delivery = node.Delivery
	// Event is a membership notification (view change, group ready,
	// formation failure, suspicion).
	Event = node.Event
	// Stats are per-process protocol counters.
	Stats = core.Stats
	// OrderMode selects a group's delivery discipline.
	OrderMode = core.OrderMode
)

// Ordering disciplines (see package documentation).
const (
	Atomic     = core.Atomic
	Symmetric  = core.Symmetric
	Asymmetric = core.Asymmetric
)

// Membership event kinds.
const (
	EventViewChanged      = node.EventViewChanged
	EventGroupReady       = node.EventGroupReady
	EventFormationFailed  = node.EventFormationFailed
	EventSuspected        = node.EventSuspected
	EventStateTransferred = node.EventStateTransferred
	EventHealDetected     = node.EventHealDetected
	EventReconciled       = node.EventReconciled
)

// Re-exported sentinel errors.
var (
	ErrUnknownGroup  = core.ErrUnknownGroup
	ErrGroupExists   = core.ErrGroupExists
	ErrLeftGroup     = core.ErrLeftGroup
	ErrDuplicateView = core.ErrDuplicateView
	ErrBadMembers    = core.ErrBadMembers
	ErrClosed        = node.ErrClosed
)

// Config configures one Newtop process.
type Config struct {
	// Self is this process's unique non-zero identifier.
	Self ProcessID

	// Network attaches the process to an in-memory network (tests,
	// examples, single-binary deployments). Exactly one of Network or
	// ListenAddr must be set.
	Network *Network

	// ListenAddr is the TCP address to listen on (e.g. "10.0.0.1:7000").
	ListenAddr string
	// Peers maps peer process IDs to their TCP addresses. Peer links use
	// the transport's fixed dial timeout, dial backoff and write timeout
	// (see tcpnet.Config).
	Peers map[ProcessID]string

	// Omega is the time-silence interval ω (§4.1): how long a process
	// stays quiet in a group before multicasting a null message. It is
	// the main latency/overhead dial. Zero selects 50ms.
	Omega time.Duration
	// SuspicionTimeout is Ω (§5.2): silence beyond this raises a failure
	// suspicion. Zero selects 5ω. Must exceed Omega. Over TCP a peer
	// whose process exits is suspected sooner, as soon as its connection
	// closes and its port refuses a probe; Ω remains the bound for host
	// crashes and partitions.
	SuspicionTimeout time.Duration
	// FormationTimeout bounds the group-formation vote phase (§5.3).
	// Zero selects 20ω.
	FormationTimeout time.Duration

	// HealProbeInterval is how often this process probes members that
	// were excluded from a view, to detect a healed partition
	// (EventHealDetected). Zero selects 2s; negative disables probing.
	HealProbeInterval time.Duration

	// SignatureViews enables the §6 view-signature variant under which
	// concurrent views never intersect.
	SignatureViews bool

	// FlowControlWindow bounds this process's unstable-message backlog
	// per group; extra submits queue until stability advances. Zero
	// disables flow control.
	FlowControlWindow int

	// RingThreshold enables ring dissemination for large payloads: an
	// application multicast of at least this many payload bytes travels
	// the view-defined ring — the originator sends the payload once, to
	// its successor, and each member forwards it once — while the small
	// ordering metadata still goes point-to-point. This flattens the
	// originator's NIC load from (n−1)× payload to 1× payload plus n−1
	// headers, at the cost of up to one extra ring circumference of
	// delivery latency for those messages. Zero disables the ring
	// (every multicast ships the payload to every member directly).
	// Groups of fewer than three members always send directly.
	RingThreshold int
	// RingPullAfter is how long a member waits on a payload whose
	// ordering header has arrived before re-requesting it from the
	// originator (lost ring frame). Zero selects 250ms.
	RingPullAfter time.Duration

	// AcceptInvite, when set, decides group-formation invitations
	// (§5.3 step 2): group, formation coordinator, intended membership.
	// Nil accepts everything.
	AcceptInvite func(GroupID, ProcessID, []ProcessID) bool

	// TraceSampleEvery enables delivery-stream tracing: one in every N
	// data messages (by Lamport number) is stamped through its lifecycle
	// stages — submit, send, receive, ordered, stable, delivered, applied.
	// Zero disables tracing. Sampling by message number means every
	// process samples the same messages, so traces line up across the
	// group.
	TraceSampleEvery uint64
	// TraceKeep bounds how many completed traces are retained (FIFO
	// eviction; default 1024). Only meaningful with TraceSampleEvery > 0.
	TraceKeep int
}

// MetricsSnapshot is a point-in-time copy of a process's metric series:
// counters, gauges, and histogram summaries keyed by metric name (labels
// baked into the name, Prometheus-style).
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot summarises one latency/size distribution.
type HistogramSnapshot = obs.HistSnapshot

// Trace is one sampled message's stamped lifecycle (see
// Config.TraceSampleEvery).
type Trace = obs.Trace

// Process is a running Newtop process: the protocol engine, its timers and
// its transport, driven by a background event loop.
type Process struct {
	n    *node.Node
	tcp  *tcpnet.Endpoint
	self ProcessID
	reg  *obs.Registry
	trc  *obs.Tracer
}

// Start launches a process with the given configuration.
func Start(cfg Config) (*Process, error) {
	if cfg.Self == types.NilProcess {
		return nil, errors.New("newtop: Config.Self must be non-zero")
	}
	if (cfg.Network == nil) == (cfg.ListenAddr == "") {
		return nil, errors.New("newtop: set exactly one of Config.Network or Config.ListenAddr")
	}
	// One registry per process: every layer — engine, ring, transport,
	// node — resolves its handles against it, and Metrics() snapshots it.
	reg := obs.NewRegistry()
	var trc *obs.Tracer
	if cfg.TraceSampleEvery > 0 {
		trc = obs.NewTracer(cfg.TraceSampleEvery, cfg.TraceKeep, reg)
	}
	var (
		ep  transport.Endpoint
		tcp *tcpnet.Endpoint
		err error
	)
	if cfg.Network != nil {
		ep, err = cfg.Network.inner.Attach(cfg.Self)
		if err != nil {
			return nil, fmt.Errorf("newtop: %w", err)
		}
	} else {
		tcp, err = tcpnet.New(tcpnet.Config{
			Self:       cfg.Self,
			ListenAddr: cfg.ListenAddr,
			Peers:      cfg.Peers,
			Metrics:    reg,
		})
		if err != nil {
			return nil, fmt.Errorf("newtop: %w", err)
		}
		ep = tcp
	}
	n := node.New(core.Config{
		Self:              cfg.Self,
		Omega:             cfg.Omega,
		SuspicionTimeout:  cfg.SuspicionTimeout,
		FormationTimeout:  cfg.FormationTimeout,
		SignatureViews:    cfg.SignatureViews,
		FlowControlWindow: cfg.FlowControlWindow,
		AcceptInvite:      cfg.AcceptInvite,
		Metrics:           reg,
		Tracer:            trc,
		// The node runtime's transports marshal frames inside Send and
		// its effect loop never retains engine messages, so the engine
		// can recycle its outbound message structs.
		MessageArena: true,
	}, ep, node.Options{
		HealProbeEvery: cfg.HealProbeInterval,
		RingThreshold:  cfg.RingThreshold,
		RingPullAfter:  cfg.RingPullAfter,
		Metrics:        reg,
	})
	return &Process{n: n, tcp: tcp, self: cfg.Self, reg: reg, trc: trc}, nil
}

// Self returns the process identifier.
func (p *Process) Self() ProcessID { return p.self }

// Addr returns the actual TCP listen address ("" for in-memory processes);
// useful when ListenAddr used port 0.
func (p *Process) Addr() string {
	if p.tcp == nil {
		return ""
	}
	return p.tcp.Addr()
}

// BootstrapGroup installs group g with a statically agreed initial
// membership (every member must bootstrap the identical group). For
// dynamic formation use CreateGroup.
func (p *Process) BootstrapGroup(g GroupID, mode OrderMode, members []ProcessID) error {
	return p.n.BootstrapGroup(g, mode, members)
}

// CreateGroup initiates dynamic formation of group g with this process as
// coordinator (§5.3). Watch Events for EventGroupReady or
// EventFormationFailed.
func (p *Process) CreateGroup(g GroupID, mode OrderMode, members []ProcessID) error {
	return p.n.CreateGroup(g, mode, members)
}

// LeaveGroup departs group g permanently. A departed group cannot be
// rejoined; form a new group instead (§3).
func (p *Process) LeaveGroup(g GroupID) error { return p.n.LeaveGroup(g) }

// Submit multicasts payload to group g under the group's ordering mode.
// The call is asynchronous: ordering happens at delivery. Sends may be
// queued internally by the paper's blocking rules or by flow control.
func (p *Process) Submit(g GroupID, payload []byte) error { return p.n.Submit(g, payload) }

// Deliveries returns the channel of ordered application deliveries (all
// groups; one totally ordered stream per process).
func (p *Process) Deliveries() <-chan Delivery { return p.n.Deliveries() }

// Events returns the channel of membership notifications.
func (p *Process) Events() <-chan Event { return p.n.Events() }

// View returns the current membership view of g.
func (p *Process) View(g GroupID) (View, error) { return p.n.View(g) }

// GroupReady reports whether g is open for sends.
func (p *Process) GroupReady(g GroupID) bool { return p.n.GroupReady(g) }

// Stats snapshots protocol counters.
func (p *Process) Stats() Stats { return p.n.Stats() }

// Metrics snapshots every metric series the process's layers have
// registered: engine drop/stall counters and depth gauges, ring and
// transport activity, node probe traffic, replica latencies. Keys are
// Prometheus-style metric names with labels baked in.
func (p *Process) Metrics() MetricsSnapshot { return p.reg.Snapshot() }

// MetricsRegistry exposes the process's live metric registry, e.g. for an
// HTTP scrape endpoint (see Registry.WritePrometheus) or for sharing one
// registry between a process and its clients.
func (p *Process) MetricsRegistry() *obs.Registry { return p.reg }

// Traces returns the retained sampled delivery traces (empty unless
// Config.TraceSampleEvery was set).
func (p *Process) Traces() []Trace {
	if p.trc == nil {
		return nil
	}
	return p.trc.Traces()
}

// Close stops the process and releases its transport.
func (p *Process) Close() error { return p.n.Close() }

// ---------------------------------------------------------------------------
// Replicated state machines
// ---------------------------------------------------------------------------

// StateMachine is deterministic application state replicated over a
// group's total order: Apply executes one command, Snapshot/Restore move
// whole states for replica catch-up. See internal/rsm for the exact
// determinism contract.
type StateMachine = rsm.StateMachine

// Replica is a process's handle on a replicated state machine: Propose
// multicasts commands, Read gives read-your-writes access, Barrier is a
// linearizable fence, and Digest fingerprints the state for cross-replica
// comparison (e.g. divergence detection after a partition).
type Replica = rsm.Replica

// ReplicaOption configures Replicate.
type ReplicaOption = rsm.Option

// ReplicaStats counts a replica's replication activity.
type ReplicaStats = rsm.Stats

// CatchUp starts the replica empty: it requests a state transfer from the
// group (snapshot plus replay tail, all inside the total order) and only
// then starts serving. Use it for the newcomer when migrating or scaling a
// replicated service by forming a new overlapping group (fig. 1); watch
// for EventStateTransferred or Replica.Ready.
func CatchUp() ReplicaOption { return rsm.CatchUp() }

// WithSnapshotChunkSize overrides the snapshot chunk size used when this
// replica streams state to a newcomer (default 64 KiB).
func WithSnapshotChunkSize(n int) ReplicaOption { return rsm.WithChunkSize(n) }

// Replicate attaches sm to group g and starts the replica's apply loop:
// g's deliveries are diverted to the replica and fed to sm in the agreed
// total order, so every member's machine stays identical. Call Replicate
// before the group starts delivering — i.e. before BootstrapGroup, or
// right after CreateGroup while formation is still in flight.
//
// Newtop processes never rejoin a group (§3); to add a replica, form a
// new group overlapping the old one and Replicate it on every member —
// incumbents as-is (their machines carry the state over), the newcomer
// with CatchUp. An up-to-date incumbent, elected by the total order
// itself, streams a snapshot and the newcomer replays the tail, all
// ordered against ongoing writes — no write pause, no fuzzy cutover.
func Replicate(p *Process, g GroupID, sm StateMachine, opts ...ReplicaOption) (*Replica, error) {
	return rsm.Replicate(p.n, g, sm, opts...)
}

// KV is the reference StateMachine: a replicated string map driven by
// "put <key> <value>" / "del <key>" commands.
type KV = rsm.KV

// NewKV creates an empty replicated map.
func NewKV() *KV { return rsm.NewKV() }

// ---------------------------------------------------------------------------
// Partition reconciliation
// ---------------------------------------------------------------------------

// MergePolicy decides, key by key, which diverged value survives a
// partition reconciliation. Built-ins: LastWriterWins, PreferSide. The
// policy must be a pure function — every member runs it on identical
// inputs and must reach the identical outcome.
type MergePolicy = rsm.MergePolicy

// MergeCandidate is one diverged side's opinion about a key, as handed to
// a MergePolicy.
type MergeCandidate = rsm.MergeCandidate

// Differ is a StateMachine that additionally supports digest-diff
// reconciliation (per-bucket digests, diff export, merge install). KV
// implements it; custom machines must too before they can Reconcile.
type Differ = rsm.Differ

// LastWriterWins is the default merge policy: for each conflicting key
// the operation — write or delete — with the highest apply index wins.
// Deletions compete through bounded tombstones the KV keeps between
// reconciliations, so a partition-era delete beats an older surviving
// write instead of being resurrected.
func LastWriterWins() MergePolicy { return rsm.LastWriterWins() }

// PreferSide resolves every conflict in favour of the partition tagged
// with side (see WithPartitionSide), falling back to LastWriterWins if no
// surviving member carries that tag.
func PreferSide(side uint64) MergePolicy { return rsm.PreferSide(side) }

// WithPartitionSide tags this replica's pre-heal subgroup for
// reconciliation — conventionally the subgroup's lowest process ID, i.e.
// the lowest member of the old group's final view on this side. The tag
// feeds side-aware policies such as PreferSide. Default: the process's
// own ID.
func WithPartitionSide(side uint64) ReplicaOption { return rsm.WithSide(side) }

// WithMergeBuckets overrides the reconciliation diff-digest bucket count
// (default 64). More buckets mean a finer diff — fewer unrelated keys
// exchanged — at the cost of a larger summary. All members must agree.
func WithMergeBuckets(n int) ReplicaOption { return rsm.WithBuckets(n) }

// WithSnapshotStreamWindow overrides how many snapshot chunks this
// replica keeps in flight when streaming state to a newcomer (default 4):
// each chunk observed back through the total order releases the next, so
// a slow group bounds the streamer instead of being flooded by it.
func WithSnapshotStreamWindow(n int) ReplicaOption { return rsm.WithStreamWindow(n) }

// Reconcile repairs the divergence a partition left behind. Newtop never
// remerges a partitioned group (§5): after the network heals — watch for
// EventHealDetected — the application forms ONE merged successor group g
// over the survivors of every side (the §5.3 formation that also subsumes
// joins) and calls Reconcile on every member, with the group's member
// list and a MergePolicy. Like Replicate, call it before the group's
// first delivery: before CreateGroup at the initiator, at invitation
// time elsewhere.
//
// The members exchange per-bucket state digests as ordinary totally
// ordered messages, compute which buckets diverged (the exchange is
// sublinear in state size), elect one proponent per diverged lineage by
// first-summary-in-total-order, and apply the policy to the differing
// keys — deterministically, so every member installs the identical merged
// state. Writes submitted meanwhile are buffered and replayed on top, in
// the agreed order. Ready (and EventReconciled) signal completion; if
// nothing actually diverged the exchange short-circuits after the
// summaries, making Reconcile double as a cheap convergence check.
//
// The old group's traffic must be quiesced (cut over to g) before its
// members summarise their state — the same handover discipline as a
// fig. 1 migration.
func Reconcile(p *Process, g GroupID, sm StateMachine, policy MergePolicy, members []ProcessID, opts ...ReplicaOption) (*Replica, error) {
	opts = append(opts, rsm.ReconcileWith(policy, members))
	return rsm.Replicate(p.n, g, sm, opts...)
}
