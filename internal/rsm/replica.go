package rsm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"newtop/internal/node"
	"newtop/internal/obs"
	"newtop/internal/storage"
	"newtop/internal/types"
)

// ErrClosed is returned by operations on a closed replica (or one whose
// node shut down underneath it).
var ErrClosed = errors.New("rsm: replica closed")

// DefaultResyncInterval is how long a catch-up replica waits without
// transfer progress before abandoning the round and requesting a fresh one
// (e.g. because the elected streamer crashed mid-stream).
const DefaultResyncInterval = 3 * time.Second

// Option configures a Replica.
type Option func(*options)

type options struct {
	catchUp      bool
	chunkSize    int
	streamWindow int
	resyncEvery  time.Duration
	reconcile    *ReconcileConfig
	side         uint64
	buckets      int
	log          *storage.Log
	snapEvery    int
	appliedBase  uint64
}

// CatchUp starts the replica empty: it requests a state transfer from the
// group and buffers commands until a snapshot is installed. Use it for the
// newcomer when an application migrates or scales a replicated service by
// forming a new group (fig. 1). Without it the replica is authoritative —
// its machine already holds the current state.
func CatchUp() Option { return func(o *options) { o.catchUp = true } }

// WithChunkSize overrides the snapshot chunk size (default 64 KiB).
func WithChunkSize(n int) Option { return func(o *options) { o.chunkSize = n } }

// WithResyncInterval overrides how long a stalled state transfer waits
// before retrying with a fresh round (and how often a stalled
// reconciliation re-checks the view for crashed participants).
func WithResyncInterval(d time.Duration) Option {
	return func(o *options) { o.resyncEvery = d }
}

// WithStreamWindow overrides how many snapshot chunks this replica keeps
// in flight when streaming state to a newcomer (default
// DefaultStreamWindow). Each own chunk observed back through the total
// order releases the next, so the window bounds the streamer's footprint
// in a slow group.
func WithStreamWindow(n int) Option {
	return func(o *options) { o.streamWindow = n }
}

// ReconcileWith starts the replica in partition-reconciliation mode: it
// exchanges digest summaries with the merged group's members, merges
// diverged state under policy, and only becomes Ready once every member
// converged to the merged state. The state machine must implement Differ.
// Commands delivered while reconciling are buffered and replayed — in the
// agreed order — on top of the merged state.
//
// members must list the merged group's membership (the caller knows it:
// it either initiates the §5.3 formation or accepted its invitation).
func ReconcileWith(policy MergePolicy, members []types.ProcessID) Option {
	ms := append([]types.ProcessID(nil), members...)
	return func(o *options) { o.reconcile = &ReconcileConfig{Policy: policy, Expect: ms} }
}

// WithSide sets this replica's partition tag for reconciliation — an
// application-chosen identifier of its pre-heal subgroup (conventionally
// the subgroup's lowest process ID), consumed by side-aware merge
// policies such as PreferSide. Default: the replica's own process ID.
func WithSide(side uint64) Option {
	return func(o *options) { o.side = side }
}

// WithBuckets overrides the reconciliation diff-digest bucket count
// (default DefaultBuckets). All members of a merged group must agree.
func WithBuckets(n int) Option {
	return func(o *options) { o.buckets = n }
}

// WithLog attaches a durability log: every applied command is appended
// (and committed, per the log's fsync policy) BEFORE any waiter — a
// pending Read ack, a barrier — observes the apply, so under fsync=always
// an acknowledged write is on stable media. The replica also cuts a
// storage snapshot whenever a state transfer or reconciliation completes
// (the moments the machine's state stops being derivable from the WAL
// alone) and every WithSnapshotEvery applied entries. The caller owns the
// log's lifecycle; the replica never closes it.
func WithLog(l *storage.Log) Option {
	return func(o *options) { o.log = l }
}

// WithSnapshotEvery cuts a storage snapshot every n applied entries
// (0: only at transfer/reconcile completion), bounding replay length and
// letting WAL segments below the cut be collected.
func WithSnapshotEvery(n int) Option {
	return func(o *options) { o.snapEvery = n }
}

// WithAppliedBase offsets the apply counts recorded in storage snapshots
// by n — the lineage apply count the machine already carried when the
// replica attached (a recovered daemon passes what it replayed), keeping
// revision counters comparable across members after repeated recoveries.
func WithAppliedBase(n uint64) Option {
	return func(o *options) { o.appliedBase = n }
}

// Replica is one process's handle on a replicated state machine: the
// per-group apply loop plus the application-facing operations. Create it
// with Replicate BEFORE the group's first delivery can arrive (i.e. before
// bootstrapping the group, or while formation is still in flight) so the
// applier sees the stream from its beginning.
type Replica struct {
	n     *node.Node
	group types.GroupID
	sm    StateMachine

	mu         sync.Mutex
	cond       *sync.Cond
	core       *Core
	proposed   uint64 // own commands submitted
	appliedOwn uint64 // own commands applied locally
	barrierSeq uint64
	barriers   map[uint64]chan struct{}
	closed     bool

	ready     chan struct{} // closed once the machine is current
	readyOnce sync.Once
	done      chan struct{} // closed when the replica stops
	doneOnce  sync.Once
	wg        sync.WaitGroup

	resyncEvery time.Duration

	// Durability (nil log means purely in-memory, the pre-storage
	// behavior). sinceSnap counts applies since the last storage snapshot
	// cut; logDead latches after the first append/commit failure so a
	// broken disk degrades to in-memory operation instead of wedging the
	// apply loop.
	log         *storage.Log
	snapEvery   int
	appliedBase uint64
	sinceSnap   int
	logDead     bool

	// Observability (registry and tracer come from the node). The core
	// stays pure, so the replica mirrors its Stats deltas into registry
	// counters after every mutation; proposeTimes is the FIFO of Propose
	// wall-clock stamps consumed as own commands come back applied.
	om           rsmMetrics
	trc          *obs.Tracer
	lastStats    Stats
	proposeTimes []time.Time
}

// rsmMetrics holds the replica's pre-resolved observability handles,
// labeled by group (one replica per group per node).
type rsmMetrics struct {
	applyLatency *obs.Histogram // propose → local apply, wall clock
	resyncs      *obs.Counter
	chunksIn     *obs.Counter
	snapshotsIn  *obs.Counter

	// storageFailed is 1 once the durability log failed (logDead): the
	// replica carries on in memory and its applies are no longer durable.
	storageFailed *obs.Gauge
}

func newRsmMetrics(reg *obs.Registry, g types.GroupID) rsmMetrics {
	lbl := func(name string) string {
		return fmt.Sprintf(`%s{group="%d"}`, name, uint64(g))
	}
	return rsmMetrics{
		applyLatency:  reg.Histogram(lbl("newtop_rsm_propose_apply_ns")),
		resyncs:       reg.Counter(lbl("newtop_rsm_resyncs_total")),
		chunksIn:      reg.Counter(lbl("newtop_rsm_chunks_in_total")),
		snapshotsIn:   reg.Counter(lbl("newtop_rsm_snapshots_in_total")),
		storageFailed: reg.Gauge(lbl("newtop_storage_failed")),
	}
}

// syncStats mirrors the pure core's counters into the registry. Called
// with mu held after any core mutation.
func (r *Replica) syncStats() {
	s := r.core.Stats()
	r.om.resyncs.Add(s.Resyncs - r.lastStats.Resyncs)
	r.om.chunksIn.Add(s.ChunksIn - r.lastStats.ChunksIn)
	r.om.snapshotsIn.Add(s.SnapshotsIn - r.lastStats.SnapshotsIn)
	r.lastStats = s
}

// Replicate attaches a replicated state machine to group g on node n and
// starts its apply loop. The group's deliveries are diverted to the
// replica; the application interacts through Propose/Read/Barrier instead
// of consuming the Deliveries channel for g.
func Replicate(n *node.Node, g types.GroupID, sm StateMachine, opts ...Option) (*Replica, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if o.resyncEvery <= 0 {
		o.resyncEvery = DefaultResyncInterval
	}
	if o.reconcile != nil {
		if o.catchUp {
			return nil, errors.New("rsm: CatchUp and ReconcileWith are mutually exclusive")
		}
		if o.reconcile.Policy == nil {
			return nil, errors.New("rsm: ReconcileWith needs a merge policy")
		}
		if _, ok := sm.(Differ); !ok {
			return nil, errors.New("rsm: reconciliation needs a StateMachine that implements Differ")
		}
		o.reconcile.Side = o.side
		o.reconcile.Buckets = o.buckets
	}
	sub, err := n.SubscribeGroup(g)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		n:     n,
		group: g,
		sm:    sm,
		core: NewCore(CoreConfig{
			Self: n.Self(), Group: g, CatchUp: o.catchUp,
			ChunkSize: o.chunkSize, StreamWindow: o.streamWindow,
			Reconcile: o.reconcile,
		}, sm),
		barriers:    make(map[uint64]chan struct{}),
		ready:       make(chan struct{}),
		done:        make(chan struct{}),
		resyncEvery: o.resyncEvery,
		log:         o.log,
		snapEvery:   o.snapEvery,
		appliedBase: o.appliedBase,
		om:          newRsmMetrics(n.Metrics(), g),
		trc:         n.Tracer(),
	}
	r.cond = sync.NewCond(&r.mu)
	if !o.catchUp && o.reconcile == nil {
		r.readyOnce.Do(func() { close(r.ready) })
	}
	r.wg.Add(1)
	go r.run(sub, r.core.Start())
	return r, nil
}

// Group returns the replicated group.
func (r *Replica) Group() types.GroupID { return r.group }

// Ready returns a channel closed once the machine is current (immediately
// for authoritative replicas, after state transfer for catch-up ones).
func (r *Replica) Ready() <-chan struct{} { return r.ready }

// CaughtUp reports whether the machine is current.
func (r *Replica) CaughtUp() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.CaughtUp()
}

// AppliedSeq returns the cumulative applied-command sequence number; equal
// across replicas with equal applied prefixes.
func (r *Replica) AppliedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.AppliedSeq()
}

// Stats returns the replication counters.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.Stats()
}

// Digest fingerprints the machine via its deterministic snapshot; equal
// digests mean identical replicated state.
func (r *Replica) Digest() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.Digest()
}

// Propose multicasts one command. Ordering and application are
// asynchronous: the command is applied — at every replica — when it comes
// back through the group's total order. Use Read or Barrier to observe it.
func (r *Replica) Propose(cmd []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if err := r.n.Submit(r.group, EncodeCommand(cmd)); err != nil {
		return err
	}
	r.proposed++
	r.proposeTimes = append(r.proposeTimes, time.Now())
	return nil
}

// Read runs fn on the state machine with read-your-writes consistency: it
// waits until every command this replica proposed before the call has been
// applied locally, then runs fn while applies are paused. fn must not
// block and must not call back into the replica.
func (r *Replica) Read(fn func(StateMachine)) error {
	select {
	case <-r.ready:
	case <-r.done:
		return ErrClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	want := r.proposed
	for r.appliedOwn < want && !r.closed {
		r.cond.Wait()
	}
	if r.closed {
		return ErrClosed
	}
	fn(r.sm)
	return nil
}

// Barrier multicasts a no-op marker and waits for its local delivery:
// when it returns, every command ordered before the barrier — by any
// member — has been applied here. It is the linearizable read fence. On a
// catch-up replica it first waits for the state transfer to complete —
// a barrier through a still-buffering machine would promise nothing.
func (r *Replica) Barrier() error {
	select {
	case <-r.ready:
	case <-r.done:
		return ErrClosed
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.barrierSeq++
	id := r.barrierSeq
	ch := make(chan struct{})
	r.barriers[id] = ch
	if err := r.n.Submit(r.group, EncodeBarrier(id)); err != nil {
		delete(r.barriers, id)
		r.mu.Unlock()
		return err
	}
	r.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-r.done:
		return ErrClosed
	}
}

// Close stops the apply loop and routes the group's future deliveries back
// to the node's shared Deliveries channel. The state machine is left as of
// the last applied command.
func (r *Replica) Close() error {
	// Unsubscribing closes the applier's feed, which stops run().
	err := r.n.UnsubscribeGroup(r.group)
	r.shutdown()
	r.wg.Wait()
	return err
}

// shutdown marks the replica stopped and wakes every waiter.
func (r *Replica) shutdown() {
	r.doneOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		r.cond.Broadcast()
		r.mu.Unlock()
		close(r.done)
	})
}

// run is the applier goroutine: it submits the initial state-transfer
// request (retrying while the group is still unknown locally — Replicate
// may legitimately precede group creation), applies the delivery stream,
// and watches for stalled transfers.
func (r *Replica) run(sub <-chan node.Delivery, initial [][]byte) {
	defer r.wg.Done()
	defer r.shutdown()

	pending := initial // start frames not yet accepted by the node
	pending = r.trySubmit(pending)

	var tick *time.Ticker
	var tickCh <-chan time.Time
	if !r.core.CaughtUp() {
		tick = time.NewTicker(r.resyncEvery)
		tickCh = tick.C
		defer tick.Stop()
	}
	var lastChunks uint64
	for {
		select {
		case d, ok := <-sub:
			if !ok {
				return
			}
			r.step(d)
		case <-tickCh:
			r.mu.Lock()
			if r.core.CaughtUp() {
				r.mu.Unlock()
				tick.Stop()
				tickCh = nil
				continue
			}
			if len(pending) > 0 {
				// The group did not exist yet; keep trying to get the
				// start frames in.
				r.mu.Unlock()
				pending = r.trySubmit(pending)
				continue
			}
			if r.core.Reconciling() {
				// A stalled reconciliation means a participant died:
				// drop expectations on members the view excluded (their
				// frames can never be delivered again) and take over
				// proponent duties if they fell to us.
				r.mu.Unlock()
				if v, err := r.n.View(r.group); err == nil {
					r.mu.Lock()
					out := r.core.PruneLive(v.Members)
					r.apply(out)
				}
				continue
			}
			chunks := r.core.Stats().ChunksIn
			if chunks == lastChunks {
				// No transfer progress for a whole interval: new round.
				pending = r.core.Resync()
				r.syncStats()
			}
			lastChunks = chunks
			r.mu.Unlock()
			pending = r.trySubmit(pending)
		case <-r.done:
			return
		}
	}
}

// trySubmit submits frames in order, returning the ones not yet accepted.
func (r *Replica) trySubmit(frames [][]byte) [][]byte {
	for len(frames) > 0 {
		if err := r.n.Submit(r.group, frames[0]); err != nil {
			return frames
		}
		frames = frames[1:]
	}
	return nil
}

// step feeds one delivery to the core and acts on the outcome.
func (r *Replica) step(d node.Delivery) {
	r.mu.Lock()
	out := r.core.Step(d.Pos, d.Sender, d.Payload)
	r.persist(out)
	r.apply(out)
	if out.Applied > 0 && r.trc.Sampled(d.Num) {
		key := obs.TraceKey{Group: d.Group, Origin: d.Sender, Num: d.Num}
		r.trc.StampIf(key, obs.StageApplied, time.Now())
	}
}

// persist records the step's applied commands in the durability log and
// cuts storage snapshots. Called with mu held, before apply() wakes any
// waiter: a Read or barrier that observes the apply therefore observes it
// at least as durable as the fsync policy promises (under FsyncAlways,
// already on stable media).
func (r *Replica) persist(out Outcome) {
	if r.log == nil || r.logDead || !r.core.CaughtUp() {
		// While syncing (catch-up or reconcile mode) nothing applies and
		// the machine's state is not yet a prefix of the group's history —
		// logging it would let recovery restore a fiction. The completing
		// step flips CaughtUp before we run, so it falls through and cuts
		// the mandatory snapshot below.
		return
	}
	pos := r.core.Pos()
	if pos.IsNil() {
		return
	}
	cut := func() bool {
		// A machine exposing its own apply clock (KV does) gives the exact
		// lineage-cumulative count — merges advance it past anything this
		// core witnessed; appliedBase+AppliedSeq is the generic fallback.
		applied := r.appliedBase + r.core.AppliedSeq()
		if sq, ok := r.sm.(interface{ Seq() uint64 }); ok {
			applied = sq.Seq()
		}
		if err := r.log.CutSnapshot(pos, applied, r.sm.Snapshot()); err != nil {
			r.failLog()
			return false
		}
		r.sinceSnap = 0
		return true
	}
	lp, _ := r.log.SnapPos()
	if virgin := r.log.Pos().IsNil() && lp.IsNil(); virgin || out.CaughtUp || out.Reconciled {
		// Mandatory cut: a virgin log under a machine that may carry state
		// from earlier groups (a successor-group attach), or a completed
		// transfer/reconcile that installed state the WAL alone cannot
		// reproduce. The cut covers this step's commands too, so nothing
		// is appended — a crash before the cut leaves the log empty and
		// recovery falls back to the previous group's data.
		cut()
		return
	}
	for _, e := range out.Durable {
		if err := r.log.Append(e); err != nil {
			r.failLog()
			return
		}
	}
	r.sinceSnap += len(out.Durable)
	if r.snapEvery > 0 && r.sinceSnap >= r.snapEvery {
		if !cut() {
			return
		}
	}
	if len(out.Durable) > 0 {
		if err := r.log.Commit(); err != nil {
			r.failLog()
		}
	}
}

// failLog latches logDead after a storage failure (a failed append,
// commit or snapshot cut) and raises the replica's storage-failed gauge.
// Called with mu held.
func (r *Replica) failLog() {
	r.logDead = true
	r.om.storageFailed.Set(1)
}

// apply finishes an outcome produced under mu (by Step or PruneLive): it
// updates the waiters' accounting, releases the lock, then performs the
// side effects — barrier wakeups, follow-up multicasts, readiness and
// events. Must be called with mu held; returns with it released.
func (r *Replica) apply(out Outcome) {
	r.appliedOwn += uint64(out.OwnApplied + out.OwnCovered)
	for i := 0; i < out.OwnApplied && len(r.proposeTimes) > 0; i++ {
		r.om.applyLatency.ObserveDuration(time.Since(r.proposeTimes[0]))
		r.proposeTimes = r.proposeTimes[1:]
	}
	// Commands covered by a snapshot were never applied locally; their
	// stamps just expire.
	for i := 0; i < out.OwnCovered && len(r.proposeTimes) > 0; i++ {
		r.proposeTimes = r.proposeTimes[1:]
	}
	r.syncStats()
	var barrier chan struct{}
	if out.Barrier != 0 {
		barrier = r.barriers[out.Barrier]
		delete(r.barriers, out.Barrier)
	}
	if out.Applied > 0 || out.OwnCovered > 0 || out.CaughtUp || out.Reconciled {
		r.cond.Broadcast()
	}
	r.mu.Unlock()

	if barrier != nil {
		close(barrier)
	}
	for _, pl := range out.Submits {
		// A failed submit here means the group is gone (left/closed);
		// the membership machinery is the authority on that.
		if err := r.n.Submit(r.group, pl); err != nil {
			break
		}
	}
	if out.CaughtUp {
		r.readyOnce.Do(func() { close(r.ready) })
		r.n.PostEvent(node.Event{Kind: node.EventStateTransferred, Group: r.group, Peer: out.Streamer})
	}
	if out.Reconciled {
		r.readyOnce.Do(func() { close(r.ready) })
		r.n.PostEvent(node.Event{Kind: node.EventReconciled, Group: r.group})
	}
}
