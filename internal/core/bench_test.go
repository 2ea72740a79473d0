package core_test

import (
	"testing"

	"newtop/internal/core"
	"newtop/internal/perf"
)

// Engine micro-benchmarks: end-to-end protocol throughput under the
// deterministic simulator (all members, full ordering and stability
// machinery engaged). The benchmark bodies live in internal/perf so that
// cmd/newtop-bench can run the identical measurements programmatically
// and emit BENCH_core.json; payloads are pre-generated there, outside the
// timed loops, so these numbers measure the engine, not fmt.

func BenchmarkEngineSymmetricN3(b *testing.B)  { perf.EngineThroughput(b, 3, core.Symmetric) }
func BenchmarkEngineSymmetricN9(b *testing.B)  { perf.EngineThroughput(b, 9, core.Symmetric) }
func BenchmarkEngineAsymmetricN3(b *testing.B) { perf.EngineThroughput(b, 3, core.Asymmetric) }
func BenchmarkEngineAsymmetricN9(b *testing.B) { perf.EngineThroughput(b, 9, core.Asymmetric) }
func BenchmarkEngineAtomicN9(b *testing.B)     { perf.EngineThroughput(b, 9, core.Atomic) }

// BenchmarkEngineHandleMessage isolates the receive path: one engine
// processing a pre-built stream of data messages from a peer.
func BenchmarkEngineHandleMessage(b *testing.B) { perf.EngineHandleMessage(b) }

// BenchmarkEngineArenaCycle measures the steady-state heap cost of a full
// own-message lifecycle with the message arena on.
func BenchmarkEngineArenaCycle(b *testing.B) { perf.EngineArenaCycle(b) }

// BenchmarkEnginePromptNull measures answering a peer's data message with
// a prompt null (HandleMessage, then Flush) with the message arena on.
func BenchmarkEnginePromptNull(b *testing.B) { perf.EnginePromptNull(b) }

// BenchmarkRingDisseminateN9 measures 16 KiB ring dissemination into a
// 9-member group.
func BenchmarkRingDisseminateN9(b *testing.B) { perf.RingDisseminateN9(b) }

// BenchmarkMetricsHotPath measures one counter+gauge+histogram update
// against pre-resolved handles; the CI gate pins it at 0 allocs/op.
func BenchmarkMetricsHotPath(b *testing.B) { perf.MetricsHotPath(b) }

// BenchmarkMembershipAgreement measures a full crash-to-view-change cycle.
func BenchmarkMembershipAgreement(b *testing.B) { perf.MembershipAgreement(b) }

// BenchmarkGroupFormation measures the §5.3 protocol end to end.
func BenchmarkGroupFormation(b *testing.B) { perf.GroupFormation(b) }
