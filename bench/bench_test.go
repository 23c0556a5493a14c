package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layer []string) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	return e2e, layer
}

// TestWorkloadsEmitDeclaredMetrics runs every workload briefly, untraced
// and traced, and checks that each emits exactly its declared metrics
// with every answer correct.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	e2e, layer := declared(t)
	out, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(config{
				workload: w.name, seed: 1, measure: time.Second,
				warmup: 100 * time.Millisecond, setups: 1, trace: trace,
			}, out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%t: metrics %v, declared %v", w.name, trace, got, want)
			}
		}
	}
}

// TestFleetOverloadIsInvalid offers fleet_mix four times the rate its two
// connections can serve. The pacer is never late when it is behind, so
// only the count of arrivals left unanswered can reject the run, and it
// must.
func TestFleetOverloadIsInvalid(t *testing.T) {
	e := &env{seed: 1, tc: &tracing{}, dir: t.TempDir()}
	if err := prepareFleetMix(e); err != nil {
		t.Fatal(err)
	}
	inst, err := setupFleetMix(e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	w := inst.(*fleetMix)
	w.load = 4
	rec := newRecorder(nil)
	w.drive(time.Now().Add(time.Second), rec)
	if rec.failed != 0 {
		t.Fatalf("%d of %d units failed: %v", rec.failed, rec.attempted, rec.errs)
	}
	if err := w.validate(rec); err == nil {
		t.Errorf("a run offered 4x what it can serve was valid (%d of %d arrivals answered)", w.answered, w.offered)
	}
}

// modeledLinks attaches the first few cases of a kgdb_attach set-up and
// returns their modeled link times (cold round, then each stop).
func modeledLinks(t *testing.T, seed uint64) []time.Duration {
	t.Helper()
	inst, err := setupKGDBAttach(&env{seed: seed, tc: &tracing{}})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	w := inst.(*kgdbAttach)
	var out []time.Duration
	for _, c := range w.cases[:3] {
		if err := w.unit(nil, newRecorder(nil), c); err != nil {
			t.Fatal(err)
		}
		out = append(out, c.link...)
	}
	return out
}

// TestKGDBLinkTimeRepeats pins the modeled link time: a pure function of
// the seeded inputs, never of wall time.
func TestKGDBLinkTimeRepeats(t *testing.T) {
	a, b, c := modeledLinks(t, 1), modeledLinks(t, 1), modeledLinks(t, 2)
	if !slices.Equal(a, b) {
		t.Errorf("same seed, different link times: %v vs %v", a, b)
	}
	if slices.Equal(a, c) {
		t.Errorf("seeds 1 and 2 gave the same link times %v", a)
	}
}
