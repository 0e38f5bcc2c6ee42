package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPlanDependsOnlyOnSeed(t *testing.T) {
	for _, name := range workloadNames {
		w := workloads[name]
		a, b := planDigest(w, 7, 20), planDigest(w, 7, 20)
		if a != b {
			t.Errorf("%s: same seed gave different op sequences", name)
		}
		if c := planDigest(w, 8, 20); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
	}
}

func TestScheduleCoversWindow(t *testing.T) {
	const T = 15e9
	segs := schedule(3, T)
	if len(segs) != 2*scheduleCycles(T)+1 || !segs[0].smallOn || !segs[len(segs)-1].smallOn {
		t.Fatalf("schedule shape: %+v", segs)
	}
	on := 0.0
	for i, s := range segs {
		if s.end <= s.start || (i > 0 && s.start != segs[i-1].end) {
			t.Fatalf("phase %d not contiguous: %+v", i, segs)
		}
		if s.smallOn {
			on += float64(s.end - s.start)
		}
	}
	if segs[len(segs)-1].end != T {
		t.Fatalf("schedule ends at %v, want %v", segs[len(segs)-1].end, T)
	}
	if got := on / T; got < scheduleOn-0.001 || got > scheduleOn+0.001 {
		t.Fatalf("on share %.4f, want %.2f", got, scheduleOn)
	}
}

func TestVerifyTripsOnCorruption(t *testing.T) {
	want := newPool(1, 64<<10)
	got := append([]byte(nil), want...)
	if err := verify(got, want); err != nil {
		t.Fatalf("identical buffers: %v", err)
	}
	got[40000] ^= 0x01
	if err := verify(got, want); !errors.Is(err, errMismatch) {
		t.Fatalf("one flipped bit: got %v, want a mismatch", err)
	}
	if err := verify(want[:100], want); !errors.Is(err, errMismatch) {
		t.Fatalf("short read: got %v, want a mismatch", err)
	}
}

func TestHistPercentiles(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1e6, 1 << 34} {
		low, width := bucketBounds(bucketOf(v))
		if v < low || v >= low+width {
			t.Errorf("%d lands in bucket [%d, %d)", v, low, low+width)
		}
	}
	var h hist
	var ds []time.Duration
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(100*time.Microsecond))
		ds = append(ds, d)
		h.add(d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	for _, p := range []float64{50, 90, 99} {
		exact := ms(ds[int(p/100*float64(len(ds))+0.5)-1])
		if got := h.percentile(p); math.Abs(got-exact) > exact/histSub {
			t.Errorf("p%v = %v ms, exact %v ms", p, got, exact)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	for _, tc := range []struct {
		table []unitOf
		decl  map[string]string
	}{{endToEndUnits, e2e}, {perLayerUnits, layers}} {
		if len(tc.table) != len(tc.decl) {
			t.Errorf("table has %d metrics, BENCHMARK.json %d", len(tc.table), len(tc.decl))
		}
		for _, u := range tc.table {
			if !metricName.MatchString(u.name) {
				t.Errorf("metric name %q", u.name)
			}
			if unit, ok := tc.decl[u.name]; !ok || unit != u.unit {
				t.Errorf("%s %s: BENCHMARK.json declares unit %q (present %v)", u.name, u.unit, unit, ok)
			}
		}
	}
	for n := range e2e {
		if _, dup := layers[n]; dup {
			t.Errorf("%s is declared twice", n)
		}
	}
}

// TestSmokeRuns runs every workload for half a second, untraced and
// traced, and checks the result line: no failed call, every metric
// printed is declared, and every declared metric is printed.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live fabrics")
	}
	e2e, layers := declared(t)
	for _, name := range workloadNames {
		for trace, decl := range map[string]map[string]string{"0": e2e, "1": layers} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				c := config{workload: name, seed: 11, seconds: 0.5, trace: int(trace[0] - '0'),
					warmup: 0.1, setupReps: 1, traceDir: t.TempDir()}
				code := runConfig(c, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("exit %d, last line %q: %v\nstderr: %s", code, lines[len(lines)-1], err, stderr.String())
				}
				if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("exit %d correct=%v attempted=%d failed=%d\nstderr: %s",
						code, out.Correct, out.Attempted, out.Failed, stderr.String())
				}
				if len(out.Metrics) != len(decl) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(out.Metrics), len(decl))
				}
				for n, m := range out.Metrics {
					if !metricName.MatchString(n) {
						t.Errorf("metric name %q", n)
					}
					if unit, ok := decl[n]; !ok || unit != m.Unit {
						t.Errorf("printed %s %s, not declared with that unit", n, m.Unit)
					}
				}
			})
		}
	}
}
