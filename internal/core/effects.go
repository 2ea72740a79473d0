package core

import (
	"fmt"

	"newtop/internal/types"
)

// Effect is an output of the protocol state machine. The engine never
// touches the network, timers or the application directly; it returns
// effects and the surrounding runtime (internal/node for goroutine-driven
// deployments, internal/sim for deterministic simulation) executes them.
type Effect interface {
	isEffect()
	fmt.Stringer
}

// SendEffect transmits Msg to To over the transport.
type SendEffect struct {
	To  types.ProcessID
	Msg *types.Message
}

func (SendEffect) isEffect() {}

// String implements fmt.Stringer.
func (e SendEffect) String() string { return fmt.Sprintf("send→%v %v", e.To, e.Msg) }

// DeliverEffect hands an application message to the local application in
// the agreed delivery order. View is the view index the delivery occurred
// in (the r of deliveryᵢ(m,r)). Index is the zero-based position of this
// delivery in the group's total order — identical at every member, so
// (Msg.Group, Index) forms the types.LogPos the replication and
// durability layers address entries by.
type DeliverEffect struct {
	Msg   *types.Message
	View  int
	Index uint64
}

func (DeliverEffect) isEffect() {}

// String implements fmt.Stringer.
func (e DeliverEffect) String() string {
	return fmt.Sprintf("deliver %v in view %d at index %d", e.Msg, e.View, e.Index)
}

// ViewEffect reports the installation of a new membership view for a
// group. Removed lists the processes excluded relative to the previous
// view. Stable is the group's stability threshold min(SV) over the new
// view at installation (§5.1): every message numbered at or below it has
// been received by every member of View, so a runtime need re-send none
// of them. It is zero for an initial view.
type ViewEffect struct {
	View    types.View
	Removed []types.ProcessID
	Stable  types.MsgNum
}

func (ViewEffect) isEffect() {}

// String implements fmt.Stringer.
func (e ViewEffect) String() string { return fmt.Sprintf("install %v (removed %v)", e.View, e.Removed) }

// GroupReadyEffect reports that a dynamically formed group has completed
// the start-group agreement (§5.3 step 5) and computational sends are now
// permitted. StartMax is the agreed start-number-max.
type GroupReadyEffect struct {
	Group    types.GroupID
	StartMax types.MsgNum
}

func (GroupReadyEffect) isEffect() {}

// String implements fmt.Stringer.
func (e GroupReadyEffect) String() string {
	return fmt.Sprintf("group %v ready (start-max %v)", e.Group, e.StartMax)
}

// FormationFailedEffect reports that group formation was vetoed or timed
// out (§5.3 step 3).
type FormationFailedEffect struct {
	Group  types.GroupID
	Reason string
}

func (FormationFailedEffect) isEffect() {}

// String implements fmt.Stringer.
func (e FormationFailedEffect) String() string {
	return fmt.Sprintf("formation of %v failed: %s", e.Group, e.Reason)
}

// SuspectEffect reports that the local failure suspector started
// suspecting a process (diagnostic; the protocol messages carrying the
// suspicion are separate SendEffects).
type SuspectEffect struct {
	Group types.GroupID
	Susp  types.Suspicion
}

func (SuspectEffect) isEffect() {}

// String implements fmt.Stringer.
func (e SuspectEffect) String() string { return fmt.Sprintf("suspect %v in %v", e.Susp, e.Group) }
