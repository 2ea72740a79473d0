package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

var testShapes = map[string]shape{
	"kv": {Rate: kvRate, Erlang: kvErlang, Steady: 7 * time.Second, Tail: kvTail, Kind: opPut,
		Keys: kvKeys, Pays: 256, Targets: 2, Victim: -1},
	"mcast": {Rate: mcastLoad.rate, Erlang: 1, Steady: 3 * time.Second, Quiet: mcastQuiet, Tail: mcastTail,
		Kind: opMcast, Pays: 64, Targets: 3, Victim: 2},
}

func TestSeedReproducesSchedule(t *testing.T) {
	for name, sh := range testShapes {
		a, b := schedule(7, 1, sh), schedule(7, 1, sh)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two schedules", name)
		}
		if reflect.DeepEqual(a, schedule(8, 1, sh)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
		if reflect.DeepEqual(a, schedule(7, 2, sh)) {
			t.Errorf("%s: episodes 1 and 2 gave the same schedule", name)
		}
	}
	if !reflect.DeepEqual(payloadPool(7, 4, 128), payloadPool(7, 4, 128)) {
		t.Error("one seed gave two payload pools")
	}
	if reflect.DeepEqual(payloadPool(7, 4, 128), payloadPool(8, 4, 128)) {
		t.Error("seeds 7 and 8 gave the same payload pool")
	}
}

func TestScheduleShape(t *testing.T) {
	for name, sh := range testShapes {
		ops := schedule(3, 0, sh)
		want := sh.Rate * (sh.Steady + sh.Tail).Seconds()
		if n := float64(len(ops)); n < 0.9*want || n > 1.1*want {
			t.Errorf("%s: %d arrivals, want about %.0f", name, len(ops), want)
		}
		kinds := map[uint8]int{}
		for i, o := range ops {
			kinds[o.Kind]++
			if i > 0 && o.At < ops[i-1].At {
				t.Fatalf("%s: arrivals out of order at %d", name, i)
			}
			if o.At >= sh.Steady && o.At < sh.crashAt() {
				t.Errorf("%s: arrival %d inside the quiet gap", name, i)
			}
			if o.At >= sh.crashAt() && o.Target == sh.Victim {
				t.Errorf("%s: arrival %d targets the crashed member", name, i)
			}
		}
		if sh.Kind == opPut && (kinds[opPut] < len(ops)/3 || kinds[opRead] < len(ops)/3) {
			t.Errorf("%s: op mix %v is not half and half", name, kinds)
		}
	}
}

func TestKVValueIdentity(t *testing.T) {
	pool := payloadPool(1, 1, kvValueSize)
	v := kvValue(4, 12345, pool[0])
	if len(v) != kvValueSize {
		t.Fatalf("value is %d B, want %d", len(v), kvValueSize)
	}
	if i, ok := kvValueOp(v); !ok || i != 12345 {
		t.Fatalf("kvValueOp = %d, %v", i, ok)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metric names and units
// in step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s %d: %s %s here, %s %s in BENCHMARK.json", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}
