package main

import (
	"math/rand"
	"sort"
	"time"
)

// Op kinds. The program only ever sees what a schedule generated: the
// arrival instant, the kind, the key and the payload index.
const (
	opPut   = iota // kv Put of a 128 B value
	opRead         // kv BarrierGet
	opMcast        // multicast of a payload
)

// op is one scheduled operation of an episode.
type op struct {
	At     time.Duration // offset from the episode's load start
	Kind   uint8
	Key    int // kv key index
	Pay    int // payload pool index
	Target int // kv session or mcast member (index, not process ID)
}

// shape fixes one episode's open-loop schedule: a renewal arrival process
// at Rate ops/s over the steady phase, a silent gap of Quiet, the crash,
// then Tail more arrivals that avoid the crashed target.
type shape struct {
	Rate float64
	// Erlang is the shape k of the Erlang-distributed gaps between
	// arrivals: 1 is a Poisson process; larger k keeps the mean rate but
	// cuts the gaps' coefficient of variation to 1/√k.
	Erlang  int
	Steady  time.Duration
	Quiet   time.Duration // no arrivals in [Steady, Steady+Quiet)
	Tail    time.Duration // arrivals in [crash, crash+Tail)
	Kind    uint8         // opMcast, or opPut for the kv 50/50 Put/BarrierGet mix
	Keys    int           // kv key space
	Pays    int           // payload pool size
	Targets int           // sessions or members; the last is the crash victim for mcast
	Victim  int           // target index excluded after the crash (-1: none)
}

// crashAt is the crash instant's offset from the load start.
func (s shape) crashAt() time.Duration { return s.Steady + s.Quiet }

// end is the offset of the last possible arrival.
func (s shape) end() time.Duration { return s.crashAt() + s.Tail }

// episodeRand derives an independent generator for one stream of one
// episode from the run seed (splitmix64 finaliser over the triple).
func episodeRand(seed int64, episode, stream int) *rand.Rand {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(episode)<<20 + uint64(stream)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// schedule generates the episode's operations from the seed. Targets are
// assigned round-robin over the targets alive at the arrival, so the load
// on each stays balanced.
func schedule(seed int64, episode int, s shape) []op {
	r := episodeRand(seed, episode, 0)
	var ops []op
	rr := 0
	at := time.Duration(0)
	for {
		g := 0.0
		for range s.Erlang {
			g += r.ExpFloat64()
		}
		at += time.Duration(g / float64(s.Erlang) / s.Rate * float64(time.Second))
		if at >= s.Steady && at < s.crashAt() {
			continue
		}
		if at >= s.end() {
			return ops
		}
		o := op{At: at, Kind: s.Kind, Pay: r.Intn(s.Pays)}
		if s.Kind == opPut {
			o.Key = r.Intn(s.Keys)
			if r.Intn(2) == 1 {
				o.Kind = opRead
			}
		}
		for {
			o.Target = rr % s.Targets
			rr++
			if at < s.crashAt() || o.Target != s.Victim {
				break
			}
		}
		ops = append(ops, o)
	}
}

// firstAfter is the index of the first op scheduled at or after the crash
// (len(ops) if none).
func firstAfter(ops []op, s shape) int {
	return sort.Search(len(ops), func(i int) bool { return ops[i].At >= s.crashAt() })
}

// payloadPool is the seeded filler the payload indices refer to: n
// strings of size letters and digits (valid kv values and multicast bodies).
func payloadPool(seed int64, n, size int) [][]byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	r := episodeRand(seed, -1, 1)
	pool := make([][]byte, n)
	for i := range pool {
		b := make([]byte, size)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		pool[i] = b
	}
	return pool
}
