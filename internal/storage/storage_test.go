package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"newtop/internal/types"
)

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func entry(g types.GroupID, idx uint64, cmd string) Entry {
	return Entry{
		Pos:    types.LogPos{Group: g, Index: idx},
		Origin: types.ProcessID(1 + idx%3),
		Cmd:    []byte(cmd),
	}
}

func mustAppend(t *testing.T, l *Log, es ...Entry) {
	t.Helper()
	for _, e := range es {
		if err := l.Append(e); err != nil {
			t.Fatalf("Append %v: %v", e.Pos, err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func recoverGroup(t *testing.T, dir string, g types.GroupID, opts Options) (*Store, *Log, *Recovered) {
	t.Helper()
	s := openStore(t, dir, opts)
	l, err := s.OpenGroup(g)
	if err != nil {
		t.Fatalf("OpenGroup: %v", err)
	}
	rec, err := l.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return s, l, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Policy: FsyncAlways})
	l, err := s.OpenGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	var want []Entry
	for i := uint64(0); i < 20; i++ {
		e := entry(1, i, fmt.Sprintf("cmd-%d", i))
		want = append(want, e)
		mustAppend(t, l, e)
	}
	if got := l.Pos(); got != (types.LogPos{Group: 1, Index: 19}) {
		t.Fatalf("Pos = %v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, l2, rec := recoverGroup(t, dir, 1, Options{Policy: FsyncAlways})
	if rec.Snapshot != nil || rec.Truncated != 0 {
		t.Fatalf("unexpected snapshot/truncation: %+v", rec)
	}
	if len(rec.Entries) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(rec.Entries), len(want))
	}
	for i, e := range rec.Entries {
		if e.Pos != want[i].Pos || e.Origin != want[i].Origin || !bytes.Equal(e.Cmd, want[i].Cmd) {
			t.Fatalf("entry %d: got %+v want %+v", i, e, want[i])
		}
	}
	if rec.Pos() != want[len(want)-1].Pos || rec.Applied() != 20 {
		t.Fatalf("Pos/Applied: %v %d", rec.Pos(), rec.Applied())
	}
	// The reopened log appends after the recovered tail.
	mustAppend(t, l2, entry(1, 20, "after"))
}

func TestSegmentRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Policy: FsyncAlways, SegmentBytes: 64})
	l, _ := s.OpenGroup(2)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := uint64(0); i < n; i++ {
		mustAppend(t, l, entry(2, i, "payload-payload-payload"))
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "g2", "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	_ = s.Close()

	_, _, rec := recoverGroup(t, dir, 2, Options{Policy: FsyncAlways, SegmentBytes: 64})
	if len(rec.Entries) != n || rec.Truncated != 0 {
		t.Fatalf("recovered %d entries (truncated %d), want %d", len(rec.Entries), rec.Truncated, n)
	}
}

func TestSnapshotCutGCAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Policy: FsyncAlways, SegmentBytes: 64})
	l, _ := s.OpenGroup(1)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30; i++ {
		mustAppend(t, l, entry(1, i, "payload-payload-payload"))
	}
	state := []byte("state@19")
	if err := l.CutSnapshot(types.LogPos{Group: 1, Index: 19}, 20, state); err != nil {
		t.Fatal(err)
	}
	// Entries 20..39 appended after the cut.
	for i := uint64(30); i < 40; i++ {
		mustAppend(t, l, entry(1, i, "payload-payload-payload"))
	}
	if sp, applied := l.SnapPos(); sp.Index != 19 || applied != 20 {
		t.Fatalf("SnapPos = %v/%d", sp, applied)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "g1", "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot file, got %v", snaps)
	}
	_ = s.Close()

	_, _, rec := recoverGroup(t, dir, 1, Options{Policy: FsyncAlways, SegmentBytes: 64})
	if !bytes.Equal(rec.Snapshot, state) || rec.SnapPos.Index != 19 || rec.SnapApplied != 20 {
		t.Fatalf("snapshot: %q @ %v/%d", rec.Snapshot, rec.SnapPos, rec.SnapApplied)
	}
	for _, e := range rec.Entries {
		if e.Pos.Index <= 19 {
			t.Fatalf("entry %v at or below the cut replayed", e.Pos)
		}
	}
	if got := rec.Applied(); got != 20+uint64(len(rec.Entries)) {
		t.Fatalf("Applied = %d", got)
	}
	if rec.Pos().Index != 39 {
		t.Fatalf("Pos = %v", rec.Pos())
	}
}

func TestSnapshotAtIndexZero(t *testing.T) {
	// "Cut at index 0" and "no snapshot" must be distinguishable: after a
	// cut at 0, entry 0 is covered but entry 1 replays.
	dir := t.TempDir()
	s := openStore(t, dir, Options{Policy: FsyncAlways})
	l, _ := s.OpenGroup(1)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, entry(1, 0, "zero"))
	if err := l.CutSnapshot(types.LogPos{Group: 1, Index: 0}, 1, []byte("s0")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, entry(1, 1, "one"))
	_ = s.Close()

	_, _, rec := recoverGroup(t, dir, 1, Options{Policy: FsyncAlways})
	if rec.Snapshot == nil || rec.SnapPos.Index != 0 {
		t.Fatalf("snapshot not recovered: %+v", rec)
	}
	if len(rec.Entries) != 1 || rec.Entries[0].Pos.Index != 1 {
		t.Fatalf("replay tail wrong: %+v", rec.Entries)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Policy: FsyncNever})
	l, _ := s.OpenGroup(1)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	big := string(bytes.Repeat([]byte("p"), 1000))
	for i := uint64(0); i < 3; i++ {
		mustAppend(t, l, entry(1, i, big))
	}
	// Nothing was fsynced; Crash keeps half the unsynced bytes — with
	// 3 equal ~1KB records that lands mid-record-2.
	l.Crash()
	if err := l.Append(entry(1, 10, "x")); err != ErrCrashed {
		t.Fatalf("Append after crash: %v", err)
	}
	_ = s.Close()

	_, l2, rec := recoverGroup(t, dir, 1, Options{Policy: FsyncNever})
	if len(rec.Entries) >= 3 {
		t.Fatalf("recovered %d entries from a torn log", len(rec.Entries))
	}
	if rec.Truncated == 0 {
		t.Fatal("torn tail not counted")
	}
	for i, e := range rec.Entries {
		if e.Pos.Index != uint64(i) || string(e.Cmd) != big {
			t.Fatalf("entry %d corrupt after truncation: %v", i, e.Pos)
		}
	}
	// The truncated log accepts appends continuing the valid prefix.
	next := uint64(len(rec.Entries))
	mustAppend(t, l2, entry(1, next, "resumed"))
}

func TestFsyncAlwaysSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Policy: FsyncAlways})
	l, _ := s.OpenGroup(1)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		mustAppend(t, l, entry(1, i, "durable"))
	}
	l.Crash() // nothing unsynced: no loss
	_ = s.Close()

	_, _, rec := recoverGroup(t, dir, 1, Options{Policy: FsyncAlways})
	if len(rec.Entries) != 10 || rec.Truncated != 0 {
		t.Fatalf("fsync=always lost data: %d entries, %d truncated", len(rec.Entries), rec.Truncated)
	}
}

func TestCorruptMiddleSegmentDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Policy: FsyncAlways, SegmentBytes: 64})
	l, _ := s.OpenGroup(1)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ {
		mustAppend(t, l, entry(1, i, "payload-payload-payload"))
	}
	_ = s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "g1", "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Flip a byte in the middle of the second segment.
	raw, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segs[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, rec := recoverGroup(t, dir, 1, Options{Policy: FsyncAlways, SegmentBytes: 64})
	if rec.Truncated == 0 {
		t.Fatal("corruption not detected")
	}
	// Entries stop strictly before the flipped record; the prefix is intact
	// and strictly ordered.
	if len(rec.Entries) == 0 || len(rec.Entries) >= 40 {
		t.Fatalf("recovered %d entries", len(rec.Entries))
	}
	for i, e := range rec.Entries {
		if e.Pos.Index != uint64(i) {
			t.Fatalf("entry %d has index %d", i, e.Pos.Index)
		}
	}
	// Segments after the corrupt one were deleted.
	left, _ := filepath.Glob(filepath.Join(dir, "g1", "wal-*.seg"))
	if len(left) >= len(segs) {
		t.Fatalf("suspect segments not deleted: %d -> %d", len(segs), len(left))
	}
}

func TestFsyncIntervalCoalesces(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Policy: FsyncInterval, Interval: time.Hour})
	l, _ := s.OpenGroup(1)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	// First Commit starts the window (lastSync zero => immediate fsync);
	// subsequent commits within the window must not fsync.
	mustAppend(t, l, entry(1, 0, "a"))
	before := s.opts.Metrics.Snapshot().Counters["newtop_wal_fsyncs_total"]
	mustAppend(t, l, entry(1, 1, "b"))
	mustAppend(t, l, entry(1, 2, "c"))
	after := s.opts.Metrics.Snapshot().Counters["newtop_wal_fsyncs_total"]
	if after != before {
		t.Fatalf("fsyncs within interval window: %v -> %v", before, after)
	}
	// Close flushes regardless of the window.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, rec := recoverGroup(t, dir, 1, Options{Policy: FsyncInterval})
	if len(rec.Entries) != 3 {
		t.Fatalf("close did not flush: %d entries", len(rec.Entries))
	}
}

func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	l, _ := s.OpenGroup(1)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, entry(1, 5, "x"))
	if err := l.Append(entry(2, 6, "wrong-group")); err == nil {
		t.Fatal("cross-group append accepted")
	}
	if err := l.Append(entry(1, 5, "replay")); err == nil {
		t.Fatal("non-monotonic append accepted")
	}
	if err := l.Append(entry(1, 4, "regress")); err == nil {
		t.Fatal("regressing append accepted")
	}
	mustAppend(t, l, entry(1, 7, "gap ok")) // gaps are legal (buffered cmds skip indexes)
}

func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if _, ok := s.LoadMeta(); ok {
		t.Fatal("meta present in empty store")
	}
	m := Meta{Group: 7, Members: []types.ProcessID{1, 2, 3}}
	if err := s.SaveMeta(m); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadMeta()
	if !ok || got.Group != 7 || len(got.Members) != 3 || got.Members[2] != 3 {
		t.Fatalf("LoadMeta = %+v, %v", got, ok)
	}
	// Corrupt meta reads as absent, not as garbage.
	path := filepath.Join(dir, "meta")
	raw, _ := os.ReadFile(path)
	raw[0] ^= 0xff
	_ = os.WriteFile(path, raw, 0o644)
	if _, ok := s.LoadMeta(); ok {
		t.Fatal("corrupt meta accepted")
	}
}

func TestGroupsPruneReset(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for _, g := range []types.GroupID{3, 1, 2} {
		l, err := s.OpenGroup(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Recover(); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, l, entry(g, 0, "x"))
	}
	if gs := s.Groups(); len(gs) != 3 || gs[0] != 1 || gs[2] != 3 {
		t.Fatalf("Groups = %v", gs)
	}
	s.Prune(3)
	if gs := s.Groups(); len(gs) != 1 || gs[0] != 3 {
		t.Fatalf("after Prune: %v", gs)
	}
	if err := s.SaveMeta(Meta{Group: 3, Members: []types.ProcessID{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if gs := s.Groups(); len(gs) != 0 {
		t.Fatalf("after Reset: %v", gs)
	}
	if _, ok := s.LoadMeta(); ok {
		t.Fatal("meta survived Reset")
	}
}

func TestCrashedLogRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	l, _ := s.OpenGroup(1)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, entry(1, 0, "x"))
	l.Crash()
	if err := l.Append(entry(1, 1, "y")); err != ErrCrashed {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Commit(); err != ErrCrashed {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.CutSnapshot(types.LogPos{Group: 1, Index: 0}, 1, nil); err != ErrCrashed {
		t.Fatalf("CutSnapshot: %v", err)
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Policy: FsyncAlways})
	l, _ := s.OpenGroup(1)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, entry(1, 0, "a"))
	if err := l.CutSnapshot(types.LogPos{Group: 1, Index: 0}, 1, []byte("old")); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	// Plant a newer, corrupt snapshot by hand.
	bad := filepath.Join(dir, "g1", "snap-00000000000000ff.snap")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, rec := recoverGroup(t, dir, 1, Options{Policy: FsyncAlways})
	if string(rec.Snapshot) != "old" || rec.SnapPos.Index != 0 {
		t.Fatalf("did not fall back to the valid snapshot: %+v", rec)
	}
	if rec.Truncated == 0 {
		t.Fatal("corrupt snapshot not counted")
	}
}

func TestParseFsync(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{
		"": FsyncAlways, "always": FsyncAlways,
		"interval": FsyncInterval, "never": FsyncNever,
	} {
		got, err := ParseFsync(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if FsyncInterval.String() != "interval" {
		t.Fatal("String")
	}
}

// A failed fsync is not durability: Commit reports the error and the log
// keeps the unsynced bytes counted as such, so a power loss still charges
// them and no caller acks them.
func TestCommitFsyncFailureIsNotDurable(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Policy: FsyncAlways})
	l, err := s.OpenGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, entry(1, 1, "synced"))
	if err := l.Append(entry(1, 2, "unsynced")); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	durable := l.durable
	_ = l.f.Close() // every later Sync fails
	l.mu.Unlock()
	if err := l.Commit(); err == nil {
		t.Fatal("Commit succeeded although the fsync failed")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.durable != durable || !l.dirty {
		t.Errorf("after a failed fsync: durable %d (was %d), dirty %v; want unchanged and dirty", l.durable, durable, l.dirty)
	}
}
