package core

import (
	"sort"

	"newtop/internal/types"
)

// msgLog retains the data-plane messages of one group until they become
// stable (§5.1): a message may be discarded only once the process knows
// every member of the current view has received it, because until then it
// may be needed to refute a suspicion (piggybacked recovery, §5.2 step
// iii). Entries are kept per origin in seq order; per-origin FIFO receipt
// means Num is non-decreasing within each slice.
type msgLog struct {
	byOrigin map[types.ProcessID][]*types.Message
	size     int

	// lastGC is the stability threshold of the most recent gc pass.
	// min(SV) is monotone, so callers can skip gc entirely until the
	// threshold advances past lastGC (see onDataPlane).
	lastGC types.MsgNum

	// onDrop, when set, observes every message the log discards (gc and
	// dropOrigin) — the message-arena release hook.
	onDrop func(*types.Message)
}

func newMsgLog() *msgLog {
	return &msgLog{byOrigin: make(map[types.ProcessID][]*types.Message)}
}

// add retains m. Duplicates (same origin and seq) are ignored.
func (l *msgLog) add(m *types.Message) {
	s := l.byOrigin[m.Origin]
	if n := len(s); n > 0 && s[n-1].Seq >= m.Seq {
		// Out-of-order or duplicate insert: keep the log's per-origin
		// seq ordering invariant by rejecting anything not newer.
		for _, e := range s {
			if e.Seq == m.Seq {
				return
			}
		}
		s = append(s, m)
		sort.Slice(s, func(i, j int) bool { return s[i].Seq < s[j].Seq })
		l.byOrigin[m.Origin] = s
		l.size++
		return
	}
	l.byOrigin[m.Origin] = append(s, m)
	l.size++
}

// concerningAbove returns the retained messages concerning process p with
// Num > ln, in transmission (Num) order: everything p transmitted (for a
// suspected sequencer this includes its relays of other members'
// messages) plus sequencer relays *of* p's messages. This is exactly the
// piggyback set of a refute message for suspicion {p, ln} — the evidence
// behind knownNum(p) > ln.
func (l *msgLog) concerningAbove(p types.ProcessID, ln types.MsgNum) []*types.Message {
	var out []*types.Message
	for _, s := range l.byOrigin {
		for _, m := range s {
			if (m.Sender == p || m.Origin == p) && m.Num > ln {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}

// latestNum returns the highest Num retained from origin (0 when none).
func (l *msgLog) latestNum(origin types.ProcessID) types.MsgNum {
	s := l.byOrigin[origin]
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].Num
}

// gc discards every entry with Num ≤ stable. Stable messages have been
// received by all members, so no refutation can ever need them. The
// surviving tail is resliced in place — the dropped prefix is nilled so
// the messages themselves become collectable, but no copy is allocated;
// subsequent appends grow past the tail and can never resurrect dropped
// entries.
func (l *msgLog) gc(stable types.MsgNum) {
	l.lastGC = stable
	for origin, s := range l.byOrigin {
		i := sort.Search(len(s), func(i int) bool { return s[i].Num > stable })
		if i == 0 {
			continue
		}
		l.size -= i
		for j := 0; j < i; j++ {
			if l.onDrop != nil {
				l.onDrop(s[j])
			}
			s[j] = nil
		}
		if i == len(s) {
			delete(l.byOrigin, origin)
			continue
		}
		l.byOrigin[origin] = s[i:]
	}
}

// dropOrigin discards every entry from origin (used when a failed process
// is removed from the view).
func (l *msgLog) dropOrigin(origin types.ProcessID) {
	s := l.byOrigin[origin]
	if l.onDrop != nil {
		for _, m := range s {
			l.onDrop(m)
		}
	}
	l.size -= len(s)
	delete(l.byOrigin, origin)
}

// countAbove returns how many retained data messages from origin have
// Num > n. Flow control uses it to bound a sender's unstable backlog of
// application messages. Nulls do not count: a member sends them on its own
// schedule, so with a small window its unstable nulls alone could hold the
// window shut for good.
func (l *msgLog) countAbove(origin types.ProcessID, n types.MsgNum) int {
	s := l.byOrigin[origin]
	c := 0
	for _, m := range s[sort.Search(len(s), func(i int) bool { return s[i].Num > n }):] {
		if m.Kind == types.KindData {
			c++
		}
	}
	return c
}

// len returns the total number of retained messages.
func (l *msgLog) len() int { return l.size }
