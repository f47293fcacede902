package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/corpus"
)

func digest(fns []corpus.Function) [32]byte {
	h := sha256.New()
	for _, f := range fns {
		h.Write([]byte(f.Name))
		h.Write([]byte{0})
		h.Write([]byte(f.Src))
		h.Write([]byte{0})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Every workload's inputs are a function of the seed alone.
func TestInputsFollowSeed(t *testing.T) {
	daemon := func(seed int64) *daemonWorkload {
		w := &daemonWorkload{seed: seed}
		w.inputs()
		return w
	}
	gens := map[string]func(seed int64) []corpus.Function{
		"corpus-certified": func(seed int64) []corpus.Function {
			return (&corpusWorkload{spec: corpusSpecs["corpus-certified"], seed: seed, n: 30}).inputs()
		},
		"corpus-deadline": func(seed int64) []corpus.Function {
			return (&corpusWorkload{spec: corpusSpecs["corpus-deadline"], seed: seed, n: 30}).inputs()
		},
		"daemon-mixed warm": func(seed int64) []corpus.Function {
			var out []corpus.Function
			for _, j := range daemon(seed).warm {
				out = append(out, corpus.Function{Name: j.Fn, Src: j.IR})
			}
			return out
		},
		"daemon-mixed unseen": func(seed int64) []corpus.Function {
			return daemon(seed).unseen.take(2 * daemonUnseenPool) // wraps around the pool
		},
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if digest(a) != digest(b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if digest(a) == digest(c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// Renamed copies are new module texts that still parse and define the
// renamed function.
func TestUnseenAreDistinct(t *testing.T) {
	s := &unseenStream{pool: referenceCorpus(3, small)}
	seen := map[string]bool{}
	for _, f := range s.take(7) {
		if seen[f.Src] {
			t.Fatalf("%s repeats an earlier module text", f.Name)
		}
		seen[f.Src] = true
		if instrCount(f) == 0 {
			t.Errorf("%s is empty", f.Name)
		}
	}
}

// The store serves exactly the warm rows: the designed share, whatever
// the number of cycles the clients managed.
func TestDaemonHitRatioIsDesigned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon")
	}
	w := &daemonWorkload{seed: 1, seconds: time.Second, workers: 2, clients: 2, tmp: t.TempDir()}
	defer w.teardown()
	if _, err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	ph, err := w.measure(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 {
		t.Fatalf("%d known-answer violations: %v", ph.failed, ph.problems)
	}
	if got, want := ph.layer["store.hit_ratio"], designedHitShare(); got != want {
		t.Errorf("store.hit_ratio = %v, want exactly %v", got, want)
	}
}

// A span's self time is its duration minus the union of its children's
// intervals, clipped to its own.
func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []spanRecord{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // outlives root
		{ID: 5, Parent: 2, Name: "a1", Start: ms(15), End: ms(20)},
		{ID: 6, Parent: 1, Name: "b", Start: ms(70), End: ms(75)},
	}
	want := map[int64]time.Duration{1: ms(35), 2: ms(25), 3: ms(30), 4: ms(30), 5: ms(5), 6: ms(5)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, got[id], w)
		}
	}
	if b := selfByName(spans)["b"]; b != ms(35) {
		t.Errorf("self time of b spans = %v, want 35ms", b)
	}
}

// BENCHMARK.json and the benchmark's own tables name the same
// workloads and metrics with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, names[i], workloadNames[i])
		}
	}
	for _, c := range []struct {
		label string
		json  []struct{ Name, Unit string }
		code  []metricDef
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark %d", c.label, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					c.label, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// The traced loop does the work harness.Run does: on corpus-certified
// the deterministic counters agree, and on corpus-deadline its workers,
// cache and portfolio are shared safely (run with -race).
func TestTracedLoopDoesHarnessWork(t *testing.T) {
	if testing.Short() {
		t.Skip("validates corpora")
	}
	for _, c := range []struct {
		name    string
		workers int
	}{{"corpus-certified", 1}, {"corpus-deadline", 2}} {
		w := &corpusWorkload{spec: corpusSpecs[c.name], seed: 1, n: 8, workers: c.workers, tmp: t.TempDir()}
		if _, err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		base, err := w.measure(nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := w.measure(tr)
		if err != nil {
			t.Fatal(err)
		}
		if base.failed+traced.failed != 0 {
			t.Fatalf("%s: known-answer violations: %v %v", c.name, base.problems, traced.problems)
		}
		if w.spec.exactCounters && base.counters != traced.counters {
			t.Errorf("%s: traced counters %v, harness.Run %v", c.name, traced.counters, base.counters)
		}
		if len(tr.records()) == 0 {
			t.Errorf("%s: the traced phase recorded no spans", c.name)
		}
	}
}
