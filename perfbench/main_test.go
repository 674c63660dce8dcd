package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/dyngraph/churnnet/internal/flood"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics asserts that got holds exactly the declared metrics, with
// their units, and that every value is a positive number.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, name, m.Unit, unit)
		case !(m.Value > 0):
			t.Errorf("%s: metric %s = %v, want > 0", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: undeclared metric %s", what, name)
		}
	}
}

// TestSmokeRunsReportEveryMetric runs every workload at smoke size, plain
// and traced, through the command's entry point, and checks the result
// line against BENCHMARK.json.
func TestSmokeRunsReportEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep := measure(w, 7, 1, traced, true)
			what := w.name
			want := endToEnd
			if traced {
				what += " traced"
				want = perLayer
			}
			if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d misses=%q", what, rep.correct, rep.attempted, rep.failed, rep.misses)
			}
			if traced && len(rep.side) != len(workloads)-1 {
				t.Errorf("%s: %d side passes, want one per other workload", what, len(rep.side))
			}
			for _, p := range rep.side {
				if p.Attempted < 1 || p.Failed != 0 {
					t.Errorf("%s: side pass %s attempted=%d failed=%d misses=%q", what, p.Workload, p.Attempted, p.Failed, p.Misses)
				}
			}
			checkMetrics(t, what, rep.metrics, want)
		}
	}
}

// TestRunPrintsResultLast checks the command's output shape: the result is
// the last line, with exactly the keys correct, attempted, failed and
// metrics.
func TestRunPrintsResultLast(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "flood-sdgr", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("result line %s, want exactly correct, attempted, failed and metrics", lines[len(lines)-1])
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "flood-sdgr", "--seconds", "0"},
		{"--workload", "flood-sdgr", "--trace", "2"},
	} {
		out.Reset()
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}

// TestGatesCatchCorruption is the negative control: a corrupted Result
// must be counted as a failed operation.
func TestGatesCatchCorruption(t *testing.T) {
	fp := floodSmoke
	fp.tamper = func(i int, r *flood.Result) {
		if i == 0 {
			r.EverInformed++
		}
	}
	if o := floodSDGR(fp, 1, 1, nil); o.failed == 0 {
		t.Error("flood-sdgr: a corrupted Result passed the RunReference gate")
	}

	fp.tamper = func(i int, r *flood.Result) {
		if i == 1 {
			r.FinalInformed -= 2
		}
	}
	if o := floodSDGR(fp, 1, 1, nil); o.failed == 0 {
		t.Error("flood-sdgr: an incomplete flood passed the per-flood gate")
	}

	tp := trafficSmoke
	tp.tamper = func(id flood.MessageID, r *flood.Result) {
		r.PeakInformed++
	}
	if o := trafficStream(tp, 1, 1, nil); o.failed == 0 {
		t.Error("traffic-stream: corrupted Results passed the single-flood replay gate")
	}
}

// TestSeedFixesOperationSequence checks that a seed fixes the operation
// sequence, that two seeds differ in it, and that both report the same
// metric set.
func TestSeedFixesOperationSequence(t *testing.T) {
	for _, w := range workloads {
		a := measure(w, 1, 1, false, true)
		again := measure(w, 1, 1, false, true)
		b := measure(w, 2, 1, false, true)
		if a.trail != again.trail {
			t.Errorf("%s: seed 1 gave two operation sequences", w.name)
		}
		if a.trail == b.trail {
			t.Errorf("%s: seeds 1 and 2 gave the same operation sequence", w.name)
		}
		if len(a.metrics) != len(b.metrics) {
			t.Errorf("%s: seeds report %d and %d metrics", w.name, len(a.metrics), len(b.metrics))
		}
		for name := range a.metrics {
			if _, ok := b.metrics[name]; !ok {
				t.Errorf("%s: metric %s only under seed 1", w.name, name)
			}
		}
	}
}
