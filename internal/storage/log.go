package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"newtop/internal/types"
)

// Log is one group incarnation's durable delivery-stream suffix: a
// segmented append-only WAL of applied entries plus the latest snapshot
// cut at a position. All methods are goroutine-safe; the replica calls
// Append+Commit under its own apply mutex, so the per-entry cost on the
// measured path is one buffered write (plus the policy's fsync).
type Log struct {
	store *Store
	group types.GroupID
	dir   string

	mu sync.Mutex

	f        *os.File // active segment (append-only)
	segPath  string
	segStart uint64 // index the active segment was named with
	size     int64  // bytes written to the active segment
	durable  int64  // active-segment bytes known fsynced (power-loss floor)
	dirty    bool   // appends since the last fsync
	lastSync time.Time

	// closed segments retained for replay, ascending by start index;
	// each records the last entry index it holds so GC below a snapshot
	// position can delete whole files.
	closed []closedSeg

	pos     types.LogPos // last appended position (zero: nothing appended)
	applied uint64       // apply count at pos (parallel bookkeeping for snapshots)

	snapPos     types.LogPos // latest snapshot's cut position
	snapApplied uint64

	crashed bool
	dead    bool // closed
}

type closedSeg struct {
	path      string
	start     uint64
	lastIndex uint64
}

// Recovered is what a Log found on disk when opened: the latest valid
// snapshot (if any) and the WAL entries strictly above its position, in
// stream order, with the tail truncated at the first invalid record.
type Recovered struct {
	Group       types.GroupID
	Snapshot    []byte // state bytes; nil when no snapshot survived
	SnapPos     types.LogPos
	SnapApplied uint64
	Entries     []Entry
	Truncated   int // invalid/torn records dropped during the scan
}

// IsEmpty reports whether nothing usable was recovered.
func (r *Recovered) IsEmpty() bool {
	return r.Snapshot == nil && len(r.Entries) == 0
}

// Pos returns the highest position recovery restored: the last replayed
// entry's, or the snapshot's when the WAL held nothing above it.
func (r *Recovered) Pos() types.LogPos {
	if n := len(r.Entries); n > 0 {
		return r.Entries[n-1].Pos
	}
	return r.SnapPos
}

// Applied returns the apply count after restoring the snapshot and
// replaying every recovered entry.
func (r *Recovered) Applied() uint64 {
	return r.SnapApplied + uint64(len(r.Entries))
}

func openLog(s *Store, g types.GroupID) (*Log, error) {
	l := &Log{store: s, group: g, dir: s.groupDir(g)}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return l, nil
}

// Group returns the incarnation this log belongs to.
func (l *Log) Group() types.GroupID { return l.group }

// Pos returns the last appended (or recovered) position.
func (l *Log) Pos() types.LogPos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos
}

// SnapPos returns the latest snapshot's cut position and apply count.
func (l *Log) SnapPos() (types.LogPos, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapPos, l.snapApplied
}

// Recover scans the group directory — latest valid snapshot, then every
// segment in order — and leaves the log positioned to append after the
// last valid record. The first torn or corrupt record ends the scan:
// the active segment is truncated there (never replayed past), and any
// later segments are deleted. Recover must be called before Append.
func (l *Log) Recover() (*Recovered, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		return nil, errors.New("storage: Recover after Append")
	}
	rec := &Recovered{Group: l.group}

	// Latest snapshot whose frame validates; corrupt ones are skipped.
	snaps, _ := filepath.Glob(filepath.Join(l.dir, "snap-*.snap"))
	sort.Strings(snaps) // names embed zero-padded indexes: lexical = numeric
	for i := len(snaps) - 1; i >= 0; i-- {
		raw, err := os.ReadFile(snaps[i])
		if err != nil {
			continue
		}
		body, _, err := decodeRecord(raw)
		if err != nil {
			rec.Truncated++
			continue
		}
		g, body, err1 := getUvarint(body)
		idx, body, err2 := getUvarint(body)
		applied, state, err3 := getUvarint(body)
		if err1 != nil || err2 != nil || err3 != nil || types.GroupID(g) != l.group {
			rec.Truncated++
			continue
		}
		rec.Snapshot = append([]byte(nil), state...)
		rec.SnapPos = types.LogPos{Group: l.group, Index: idx}
		rec.SnapApplied = applied
		l.snapPos, l.snapApplied = rec.SnapPos, applied
		break
	}

	segs, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	var prev uint64 // last valid record's index (monotonicity check)
	havePrev := false
	broken := false
	for si, seg := range segs {
		raw, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		if broken {
			// Everything after a torn record is suspect: drop the file.
			rec.Truncated++
			_ = os.Remove(seg.path)
			continue
		}
		valid := 0 // bytes of raw known to hold intact records
		buf := raw
		segLast := uint64(0)
		for len(buf) > 0 {
			body, rest, err := decodeRecord(buf)
			if err != nil {
				broken = true
				rec.Truncated++
				break
			}
			e, err := decodeEntryBody(body)
			// Monotonicity is part of validity: a record for the wrong
			// group or out of stream order is corruption, not data.
			if err != nil || e.Pos.Group != l.group || (havePrev && e.Pos.Index <= prev) {
				broken = true
				rec.Truncated++
				break
			}
			e.Cmd = append([]byte(nil), e.Cmd...) // raw is transient
			if rec.Snapshot == nil || e.Pos.Index > rec.SnapPos.Index {
				rec.Entries = append(rec.Entries, e)
			}
			prev, segLast, havePrev = e.Pos.Index, e.Pos.Index, true
			valid = len(raw) - len(rest)
			buf = rest
		}
		if broken || si == len(segs)-1 {
			// Reopen the tail segment for appending, truncated to its
			// valid prefix.
			f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, fmt.Errorf("storage: %w", err)
			}
			if err := f.Truncate(int64(valid)); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("storage: %w", err)
			}
			if _, err := f.Seek(0, 2); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("storage: %w", err)
			}
			l.f, l.segPath, l.segStart = f, seg.path, seg.start
			l.size, l.durable = int64(valid), int64(valid)
		} else {
			l.closed = append(l.closed, closedSeg{path: seg.path, start: seg.start, lastIndex: segLast})
		}
	}
	l.pos = rec.Pos()
	l.applied = rec.Applied()
	return rec, nil
}

type diskSeg struct {
	path  string
	start uint64
}

func (l *Log) listSegments() ([]diskSeg, error) {
	paths, err := filepath.Glob(filepath.Join(l.dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	segs := make([]diskSeg, 0, len(paths))
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".seg")
		v, err := strconv.ParseUint(strings.TrimPrefix(name, "wal-"), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, diskSeg{path: p, start: v})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// Append buffers one entry into the active segment (no fsync — see
// Commit). Positions must be strictly increasing.
func (l *Log) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed || l.dead {
		return ErrCrashed
	}
	if e.Pos.Group != l.group {
		return fmt.Errorf("storage: entry for %v appended to %v's log", e.Pos.Group, l.group)
	}
	if !l.pos.IsNil() && e.Pos.Index <= l.pos.Index {
		return fmt.Errorf("storage: append at %v not after %v", e.Pos, l.pos)
	}
	if l.f == nil || l.size >= l.store.opts.SegmentBytes {
		if err := l.rotateLocked(e.Pos.Index); err != nil {
			return err
		}
	}
	frame := appendRecord(nil, appendEntryBody(make([]byte, 0, 24+len(e.Cmd)), e))
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	l.size += int64(len(frame))
	l.dirty = true
	l.pos = e.Pos
	l.applied++
	l.store.om.appends.Inc()
	l.store.om.bytes.Add(uint64(len(frame)))
	return nil
}

// rotateLocked closes the active segment (fsyncing it unless the policy
// is Never) and starts a fresh one named by the next entry's index.
func (l *Log) rotateLocked(nextIndex uint64) error {
	if l.f != nil {
		if l.store.opts.Policy != FsyncNever {
			if err := l.fsyncLocked(); err != nil {
				return err
			}
		}
		_ = l.f.Close()
		l.closed = append(l.closed, closedSeg{path: l.segPath, start: l.segStart, lastIndex: l.pos.Index})
		l.store.om.rotations.Inc()
	}
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", nextIndex))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	syncDir(l.dir)
	l.f, l.segPath, l.segStart = f, path, nextIndex
	l.size, l.durable, l.dirty = 0, 0, false
	return nil
}

// Commit makes appended entries durable per the fsync policy: Always
// fsyncs now, Interval fsyncs when the window elapsed, Never does
// nothing. The replica calls it once per apply step, before any waiter
// is woken — under Always, acked therefore means durable.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed || l.dead {
		return ErrCrashed
	}
	if !l.dirty || l.f == nil {
		return nil
	}
	switch l.store.opts.Policy {
	case FsyncAlways:
		return l.fsyncLocked()
	case FsyncInterval:
		if now := time.Now(); now.Sub(l.lastSync) >= l.store.opts.Interval {
			if err := l.fsyncLocked(); err != nil {
				return err
			}
			l.lastSync = now
		}
	case FsyncNever:
	}
	return nil
}

// fsyncLocked syncs the active segment. A failed sync leaves durable and
// dirty as they were: the appended bytes are not known to be on stable
// media, and the error reaches the caller so nothing acks them.
func (l *Log) fsyncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	l.store.om.fsyncLat.ObserveDuration(time.Since(start))
	l.store.om.fsyncs.Inc()
	if err != nil {
		return fmt.Errorf("storage: fsync: %w", err)
	}
	l.durable = l.size
	l.dirty = false
	return nil
}

// CutSnapshot durably records state as covering every entry with
// Index ≤ pos.Index (applied is the apply count at the cut), then GCs:
// closed segments wholly below the cut and superseded snapshot files are
// deleted. The caller guarantees state reflects every entry appended so
// far up to pos.
func (l *Log) CutSnapshot(pos types.LogPos, applied uint64, state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed || l.dead {
		return ErrCrashed
	}
	body := binary.AppendUvarint(make([]byte, 0, 24+len(state)), uint64(l.group))
	body = binary.AppendUvarint(body, pos.Index)
	body = binary.AppendUvarint(body, applied)
	body = append(body, state...)
	path := filepath.Join(l.dir, fmt.Sprintf("snap-%016x.snap", pos.Index))
	if err := writeFileDurable(path, frameRecord(body)); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	l.snapPos, l.snapApplied = pos, applied
	l.store.om.snapshots.Inc()

	// GC: whole closed segments at or below the cut, and older snapshots.
	kept := l.closed[:0]
	for _, seg := range l.closed {
		if seg.lastIndex <= pos.Index {
			_ = os.Remove(seg.path)
			l.store.om.gcSegs.Inc()
			continue
		}
		kept = append(kept, seg)
	}
	l.closed = kept
	if snaps, err := filepath.Glob(filepath.Join(l.dir, "snap-*.snap")); err == nil {
		for _, p := range snaps {
			if p != path {
				_ = os.Remove(p)
			}
		}
	}
	return nil
}

// Crash models power loss for tests: the log goes dead (all mutations
// fail) and the active segment loses its unsynced suffix — worst case,
// everything after the last fsync; to exercise torn-record truncation it
// keeps the first half of the unsynced bytes, which may end mid-record.
// Closed segments were fsynced at rotation and survive intact (under
// FsyncNever they too were never synced, but the model charges loss to
// the active tail only).
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed || l.dead {
		return
	}
	l.crashed = true
	if l.f == nil {
		return
	}
	if lost := l.size - l.durable; lost > 0 {
		_ = l.f.Truncate(l.durable + lost/2)
	}
	_ = l.f.Close()
	l.f = nil
}

// Close flushes (per policy) and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return nil
	}
	l.dead = true
	if l.f == nil || l.crashed {
		return nil
	}
	var err error
	if l.dirty && l.store.opts.Policy != FsyncNever {
		err = l.fsyncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
