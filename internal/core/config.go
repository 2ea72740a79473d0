package core

import (
	"time"

	"newtop/internal/obs"
	"newtop/internal/types"
)

// OrderMode selects the delivery guarantee a process runs in a group. The
// generic version of Newtop (§4.3) lets one process use different modes in
// different groups simultaneously; mixed-mode correctness rests on the
// shared Lamport numbering plus the Mixed-mode Blocking Rule.
type OrderMode uint8

const (
	// Atomic delivers messages as they arrive (per-sender FIFO), with no
	// inter-sender ordering: the paper's plain atomic delivery, which
	// bypasses the logical-clock gate (fig. 3). Membership and view
	// atomicity still apply.
	Atomic OrderMode = iota + 1
	// Symmetric is the decentralised total-order protocol of §4.1: every
	// member multicasts directly, delivery is gated by the receive-vector
	// minimum D.
	Symmetric
	// Asymmetric is the sequencer-based protocol of §4.2: members unicast
	// to a deterministic sequencer which multicasts in receipt order.
	Asymmetric
)

// String implements fmt.Stringer.
func (m OrderMode) String() string {
	switch m {
	case Atomic:
		return "atomic"
	case Symmetric:
		return "symmetric"
	case Asymmetric:
		return "asymmetric"
	default:
		return "unknown"
	}
}

// Default protocol timing parameters.
const (
	// DefaultOmega is the default time-silence interval ω (§4.1): a
	// process sends a null message in a group after ω without sending.
	DefaultOmega = 50 * time.Millisecond
	// DefaultSuspicionFactor scales ω to the failure-suspicion interval
	// Ω (§5.2 requires Ω > ω; the slack absorbs transmission delay).
	DefaultSuspicionFactor = 5
	// DefaultFormationFactor scales ω to the formation-vote timeout
	// (§5.3 step 3: the initiator vetoes if yes-votes do not arrive
	// "within some time duration").
	DefaultFormationFactor = 20
)

// Config parameterises a protocol engine for one process.
type Config struct {
	// Self is the process identity; must be non-zero and unique.
	Self types.ProcessID

	// Omega is the time-silence interval ω. Zero selects DefaultOmega.
	Omega time.Duration

	// SuspicionTimeout is Ω, the silence span after which the failure
	// suspector suspects a member (§5.2). Zero selects
	// DefaultSuspicionFactor × Omega. Must exceed Omega.
	SuspicionTimeout time.Duration

	// FormationTimeout bounds the §5.3 vote-collection phase. Zero
	// selects DefaultFormationFactor × Omega.
	FormationTimeout time.Duration

	// SignatureViews enables the §6 variant adapted from Schiper &
	// Ricciardi: views carry {process, exclusion-count} signatures and
	// concurrent views never intersect.
	SignatureViews bool

	// FlowControlWindow bounds the number of this process's own
	// unstable (not-yet-everywhere-received) messages per group; further
	// Submit calls are queued until stability advances. Zero disables
	// flow control. Implements the mechanism referenced in §7 / [11].
	FlowControlWindow int

	// DisableFailureDetection turns off time-silence-driven suspicion,
	// giving the static failure-free protocol of §4 (where only
	// asymmetric sequencers run time-silence). Mainly for experiments.
	DisableFailureDetection bool

	// AcceptInvite decides whether to vote yes on a group-formation
	// invitation (§5.3 step 2). Nil accepts every invitation. coord is
	// the formation coordinator — the process that initiated CreateGroup.
	// It lets an invitee classify the formation: a joiner coordinates its
	// own join, so a member list with a stranger in it coordinated by an
	// incumbent is a post-heal merge, not a join.
	AcceptInvite func(g types.GroupID, coord types.ProcessID, members []types.ProcessID) bool

	// MessageArena recycles the structs of the engine's own outbound
	// data-plane messages (application multicasts, time-silence nulls)
	// through a per-group free list once both the stability log and the
	// delivery queue have released them, removing the last per-message
	// heap allocation from the steady-state send path.
	//
	// Only enable it when the surrounding runtime consumes effect batches
	// synchronously and never retains a *types.Message across engine
	// calls: internal/node qualifies (its transports marshal frames at
	// enqueue, inside Send), as does internal/sim in wire-codec mode
	// (frames are encoded at transmit time). The default simulator mode
	// does NOT qualify — it passes message pointers between engines — and
	// must keep this off.
	MessageArena bool

	// Metrics, when set, receives the engine's observability series:
	// labeled drop counters, gate-stall reasons, log-gc pause and
	// queue/arena/log depth gauges. Handle resolution happens once in
	// NewEngine; per-stimulus updates are lock-free atomics, and a nil
	// registry reduces every update to one branch.
	Metrics *obs.Registry

	// Tracer, when set, stamps the lifecycle stages of sampled data-plane
	// messages (submit → send → receive → ordered → stable → delivered)
	// with the same `now` the engine is driven with — virtual time under
	// sim, wall clock under node — so simulated traces are
	// seed-deterministic.
	Tracer *obs.Tracer
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Omega <= 0 {
		cfg.Omega = DefaultOmega
	}
	if cfg.SuspicionTimeout <= 0 {
		cfg.SuspicionTimeout = DefaultSuspicionFactor * cfg.Omega
	}
	if cfg.FormationTimeout <= 0 {
		cfg.FormationTimeout = DefaultFormationFactor * cfg.Omega
	}
	return cfg
}

// Stats counts protocol activity at one process; the harness aggregates
// them across processes for the experiment tables.
type Stats struct {
	DataSent      uint64 // application multicasts initiated
	NullsSent     uint64 // null messages multicast (time-silence and prompt)
	SeqRequests   uint64 // asymmetric unicasts to sequencers
	SeqMulticasts uint64 // multicasts performed as sequencer
	CtrlSent      uint64 // membership/formation messages multicast
	MsgsSent      uint64 // total point-to-point transmissions (SendEffects)
	Delivered     uint64 // application deliveries
	NullsDropped  uint64 // nulls processed (never delivered)
	ViewChanges   uint64 // views installed
	Suspicions    uint64 // suspicions raised by local suspector
	Refutes       uint64 // refute messages sent
	Recovered     uint64 // messages recovered via refute piggyback
	Discarded     uint64 // messages discarded by view cutoff (m.c > lnmn)
	BlockedSends  uint64 // sends queued by a blocking rule
	FlowBlocked   uint64 // sends queued by flow control
	Gaps          uint64 // FIFO sequence gaps detected (transport loss)
}
