package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},      // nested, with its own child
		{Name: "a1", Start: 15, End: 25, Parent: 1},     //
		{Name: "b", Start: 40, End: 60, Parent: 0},      // adjacent to a
		{Name: "zero", Start: 70, End: 70, Parent: 0},   // zero-length
		{Name: "c", Start: 50, End: 80, Parent: 0},      // overlaps b (two workers)
		{Name: "late", Start: 95, End: 120, Parent: 0},  // runs past its parent: clipped
		{Name: "orphan", Start: 0, End: 5, Parent: -1},  // second root
		{Name: "inner0", Start: 20, End: 20, Parent: 2}, // zero-length grandchild
	}
	want := []int64{
		100 - (30 + 20 + 20 + 5), // a ∪ b ∪ c = [10,80) minus nothing = 70, late clipped to [95,100)
		30 - 10,
		10,
		20,
		0,
		30,
		25,
		5,
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSpanRecorderNilIsInert(t *testing.T) {
	var r *spanRecorder
	id := r.begin("x", -1, 0)
	r.end(id)
	if id != -1 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
}

// burnCPU is the frame the decoder test looks for.
//
//go:noinline
func burnCPU(d time.Duration) float64 {
	x, start := 1.0, time.Now()
	for time.Since(start) < d {
		for i := 0; i < 10000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	probeSink += burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profiler delivered no samples on this machine")
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 || len(s.stack) == 0 {
			t.Fatalf("bad sample %+v", s)
		}
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".burnCPU")
		}
	}
	if !found {
		t.Error("no sample's stack names burnCPU")
	}
	shares, generator := cpuShares(samples)
	if generator < 0.5 {
		t.Errorf("generator share = %.2f, want most samples in this package", generator)
	}
	var sum float64
	for k, v := range shares {
		if !slices.Contains(cpuShareKeys, k) {
			t.Errorf("unknown bucket %q", k)
		}
		sum += v
	}
	if len(shares) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("program shares sum to %v, want 1", sum)
	}

	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"starlinkperf/internal/sim.(*Scheduler).siftDown", "main.main"}, "sim"},
		{[]string{"starlinkperf/internal/fleet.(*Fleet).scanSats"}, "fleet"},
		{[]string{"starlinkperf/internal/errant.Fit"}, "core"},
		{[]string{"math.Sin", "starlinkperf/internal/geo.ElevationDeg"}, "math"},
		{[]string{"main.runStage"}, generatorBucket},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "starlinkperf/internal/quic.Serialize"}, "runtime_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memmove", "starlinkperf/internal/quic.(*Stream).Write"}, "runtime_other"},
		{[]string{"sort.insertionSort", "starlinkperf/internal/stats.Summarize"}, "runtime_other"},
		{nil, "runtime_other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2, 5})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
	if s := relSpread([]float64{4, 1, 3, 2, 5}); math.Abs(s-2.0/3) > 1e-12 {
		t.Errorf("relSpread = %v, want 2/3", s)
	}
	if q1, med, q3 := quartiles(nil); q1 != 0 || med != 0 || q3 != 0 {
		t.Error("quartiles of nothing are not zero")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "iter_wall_s", Better: "lower", Bound: 0.08}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.08}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.2, c * 1.1} }
	cases := []struct {
		m    metricSpec
		a, b float64
		sa   []float64
		sb   []float64
		want string
	}{
		{lower, 1, 1.02, tight(1), tight(1.02), "same"},
		{lower, 1, 1.2, tight(1), tight(1.2), "worse"},
		{lower, 1, 0.8, tight(1), tight(0.8), "better"},
		{higher, 100, 80, tight(100), tight(80), "worse"},
		{higher, 100, 120, tight(100), tight(120), "better"},
		{lower, 1, 1.05, wide(1), wide(1.05), "unresolved"},
		{lower, 1, 2, wide(1), wide(2), "worse"}, // wide but every B sample above every A sample
		{lower, 0, 1, nil, nil, "unresolved"},
		{metricSpec{Name: "setup_s", Better: "lower", Bound: 0.08}, 1, 1.05, wide(1), wide(1.05), "same"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("verdict(%s, %v→%v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

var (
	charset = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitRE  = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecShape holds BENCHMARK.json to the limits of the benchmark
// contract and to the workloads the code implements.
func TestSpecShape(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for _, ws := range spec.Workloads {
		if workloadByName(ws.Name) == nil {
			t.Errorf("workload %s is declared but not implemented", ws.Name)
		}
		if len(ws.Why) == 0 || len(ws.Why) > 200 || strings.Contains(ws.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", ws.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	var setup metricSpec
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !charset.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: bad characters", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > setup.Bound {
			t.Errorf("setup_s must carry the largest bound; %s has %v", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}

// TestSmokeTiny runs one iteration of every workload at the tiny sizes:
// every operation must succeed and leave a digest. (A speedtest and a Wehe
// audit have no size to cut, so two of the five take seconds; they run in
// parallel.)
func TestSmokeTiny(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			e := &env{workers: w.workers}
			state := w.setup(e, &tinyProfile, -1)
			defer w.close(state)
			it := w.iterate(e, &tinyProfile, state, -1, 0)
			attempted, failed := it.ops()
			if attempted == 0 || failed != 0 || it.digest == "" {
				t.Errorf("attempted %d, failed %d, digest %q", attempted, failed, it.digest)
			}
			for _, o := range it.stages {
				for _, why := range o.why {
					t.Error(why)
				}
			}
		})
	}
}

// driverMetrics runs the command line and returns the metric names and
// the verdict of its last output line.
func driverMetrics(t *testing.T, args ...string) (names map[string]string, correct bool) {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("run %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("attempted %d, failed %d", line.Attempted, line.Failed)
	}
	names = map[string]string{}
	for name, mv := range line.Metrics {
		if mv.Value == nil {
			t.Errorf("metric %s has no value", name)
		}
		names[name] = mv.Unit
	}
	return names, line.Correct
}

func sameNames(t *testing.T, got map[string]string, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		if unit, ok := got[m.Name]; !ok {
			t.Errorf("metric %s is declared but not emitted", m.Name)
		} else if unit != m.Unit {
			t.Errorf("metric %s emitted in %q, declared in %q", m.Name, unit, m.Unit)
		}
		delete(got, m.Name)
	}
	for name := range got {
		t.Errorf("metric %s is emitted but not declared", name)
	}
}

// TestEmittedMatchesSpec checks both directions: every end-to-end and
// per-layer metric named in BENCHMARK.json is emitted by the code, and the
// code emits nothing else.
func TestEmittedMatchesSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, correct := driverMetrics(t, "--workload", "quic_bulk", "--tiny", "--seed", "3", "--seconds", "0.05", "--trace", "0")
	if !correct {
		t.Error("end-to-end run is not correct")
	}
	sameNames(t, got, spec.EndToEnd)
	for _, w := range []string{"small_packets", "fleet_scale"} {
		got, correct = driverMetrics(t, "--workload", w, "--tiny", "--seed", "3", "--seconds", "0.05", "--trace", "1")
		if !correct {
			t.Errorf("traced run of %s is not correct", w)
		}
		sameNames(t, got, spec.PerLayer)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--seconds", "0"},
		{"--trace", "2"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run %v exited 0", args)
		}
	}
}
