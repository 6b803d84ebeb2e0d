package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"openhire/internal/netsim"
)

// TestMain lets the test binary serve as the query client child process,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "query-client" {
		os.Exit(runQueryClient(os.Args[2:]))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		code     []metric
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.declared) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code prints %d", c.kind, len(c.declared), len(c.code))
		}
		seen := make(map[string]bool)
		for i, m := range c.code {
			if d := c.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code prints %s (%s)", c.kind, i, d.Name, d.Unit, m.name, m.unit)
			}
			if !metricName.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: bad or repeated metric name %q", c.kind, m.name)
			}
			seen[m.name] = true
		}
	}
	for _, w := range bj.Workloads {
		if _, err := newBench(w.Name, 0); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestInputRotationDeterministic(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a, err := newBench("report_full", seed)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newBench("report_full", seed)
		if a.first != b.first || a.first != int(seed)%len(inputSeeds) {
			t.Errorf("seed %d: rotation starts at %d and %d", seed, a.first, b.first)
		}
		if err := a.loadGolden(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	for _, w := range []string{"serve_durable", "serve_query"} {
		b, _ := newBench(w, 0)
		b.inputs = []uint64{heldOutSeed}
		if err := b.loadGolden(); err != nil {
			t.Errorf("%s held-out: %v", w, err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "episode", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
}

// tinyBench shrinks a workload to a seconds-long pass with no recorded
// digests, so only determinism across episodes is checked.
func tinyBench(t *testing.T, name string) *bench {
	t.Helper()
	b, err := newBench(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	b.inputs, b.first = []uint64{11}, 0
	b.world.UniversePrefix = netsim.MustParsePrefix("100.0.0.0/20")
	b.world.AttackIntensity = 1.0 / 1024
	b.world.TelescopeScale = 1.0 / 1000000
	b.world.Workers = 8
	b.serve.Prefix = netsim.MustParsePrefix("100.0.0.0/24")
	b.serve.Workers = 8
	b.serve.Intensity = 0.002
	b.serve.Scale = 0.0002
	b.serve.SegmentTargets = 64
	b.cycles = 4
	b.minOps = 8
	if b.queryRate > 0 {
		b.queryRate = 2000
	}
	return b
}

func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload path")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range []string{"report_full", "serve_durable", "serve_query"} {
		for _, traced := range []bool{false, true} {
			b := tinyBench(t, name)
			out, err := b.run(0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, out.failed, out.attempted)
			}
			var buf bytes.Buffer
			if err := printResult(&buf, provenance{}, out, true); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, m.name, got)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", name, m.name, got.Value)
				}
			}
			if traced && res.Metrics["scan.busy_s"].Value <= 0 {
				t.Errorf("%s: traced run measured no scan time", name)
			}
		}
	}
}

func TestDigestMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	b := tinyBench(t, "serve_query")
	out, err := b.run(0, false)
	if err != nil {
		t.Fatal(err)
	}
	right := out.digests["11"]["aggregates"]
	for _, c := range []struct {
		name   string
		golden map[string]string
	}{
		{"wrong digest", map[string]string{"aggregates": "not the digest"}},
		{"recorded output missing", map[string]string{"aggregates": right, "dropped": right}},
	} {
		b := tinyBench(t, "serve_query")
		b.golden = map[string]map[string]string{"11": c.golden}
		out, err := b.run(0, false)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != len(out.episodes) {
			t.Errorf("%s: %d failed operations over %d episodes", c.name, out.failed, len(out.episodes))
		}
	}
}

func TestMismatches(t *testing.T) {
	want := map[string]string{"a": "1", "b": "2"}
	for _, c := range []struct {
		got, earlier map[string]string
		bad          string
	}{
		{map[string]string{"a": "1", "b": "2"}, want, ""},
		{map[string]string{"a": "1", "b": "3"}, want, "b"},
		{map[string]string{"a": "1"}, want, "b"},
		{map[string]string{"a": "1", "b": "2", "c": "3"}, want, "c"},
		{map[string]string{"a": "1", "b": "2"}, map[string]string{"a": "1", "b": "9"}, "b"},
	} {
		if bad := strings.Join(mismatches(c.got, want, c.earlier), ","); bad != c.bad {
			t.Errorf("mismatches(%v) = %q, want %q", c.got, bad, c.bad)
		}
	}
}

func TestOpWindows(t *testing.T) {
	ep := func(n int) episode { return episode{ops: make([]float64, n)} }
	for _, c := range []struct {
		eps   []episode
		round int
		sizes string
	}{
		{[]episode{ep(36), ep(36), ep(36), ep(36), ep(36), ep(36)}, 3, "108,108"},
		{[]episode{ep(36), ep(36), ep(36), ep(36), ep(36), ep(36), ep(36)}, 3, "108,144"},
		{[]episode{ep(18), ep(18), ep(18), ep(18), ep(18), ep(18), ep(18), ep(18), ep(18)}, 3, "162"},
		{[]episode{ep(18), ep(18), ep(18), ep(18), ep(18), ep(18), ep(18), ep(18), ep(18), ep(18), ep(18), ep(18)}, 3, "108,108"},
		{[]episode{ep(36), ep(36)}, 1, "72"},
	} {
		var sizes []string
		for _, w := range opWindows(c.eps, c.round, 100) {
			n := 0
			for _, ep := range w {
				n += len(ep.ops)
			}
			sizes = append(sizes, fmt.Sprint(n))
		}
		if got := strings.Join(sizes, ","); got != c.sizes {
			t.Errorf("%d episodes, round %d: windows of %s operations, want %s", len(c.eps), c.round, got, c.sizes)
		}
	}
}

func TestUnstolen(t *testing.T) {
	for _, c := range []struct{ steal, busy, want float64 }{
		{0, 0, 1}, {0, 400, 1}, {100, 300, 0.75}, {200, 200, 0.5},
	} {
		if got := unstolen(c.steal, c.busy); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("unstolen(%v, %v) = %v, want %v", c.steal, c.busy, got, c.want)
		}
	}
}
