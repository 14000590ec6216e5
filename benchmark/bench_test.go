package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"fsmonitor/internal/events"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 99, 7},
		{"median odd", []float64{3, 1, 2}, 50, 2},
		{"median even interpolates", []float64{4, 1, 3, 2}, 50, 2.5},
		{"min", []float64{5, 9, 1}, 0, 1},
		{"max", []float64{5, 9, 1}, 100, 9},
		{"p25 of five", []float64{10, 20, 30, 40, 50}, 25, 20},
		{"p75 of five", []float64{10, 20, 30, 40, 50}, 75, 40},
		{"p90 interpolates", []float64{0, 10}, 90, 9},
		{"clamps below", []float64{1, 2}, -5, 1},
		{"clamps above", []float64{1, 2}, 500, 2},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.vals...), c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.vals, c.p, got, c.want)
		}
	}
	if got := percentile([]int64{400, 100, 300, 200}, 50); got != 250 {
		t.Errorf("percentile over int64 ns samples = %v, want 250", got)
	}
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 3 || q2 != 5 || q3 != 7 || median([]float64{9, 1, 5}) != 5 {
		t.Errorf("quartiles = %v %v %v, want 3 5 7", q1, q2, q3)
	}
}

// TestSummarize: the drain's timing metrics report the better quartile of the
// rounds, everything else the median.
func TestSummarize(t *testing.T) {
	r := &runner{res: &result{e2e: map[string]spread{}, layer: metrics{}}}
	var rounds []metrics
	for _, v := range []float64{5, 1, 4, 2, 3} {
		rounds = append(rounds, metrics{"events_per_s": v, "cpu_us_per_event": v, "deliver_p50_ms": v, "cache.hit_ratio": v})
	}
	r.summarize(rounds)
	for name, want := range map[string]float64{"events_per_s": 4, "cpu_us_per_event": 2, "deliver_p50_ms": 3} {
		if s := r.res.e2e[name]; s.value != want || s.median != 3 || s.n != 5 {
			t.Errorf("%s: value %v median %v n %d, want value %v median 3 n 5", name, s.value, s.median, s.n, want)
		}
	}
	if r.res.layer["cache.hit_ratio"] != 3 {
		t.Errorf("layer metric = %v, want the median 3", r.res.layer["cache.hit_ratio"])
	}
}

// streamDigest hashes the first n (op, path) pairs of a stream.
func streamDigest(churn bool, seed int64, n int) string {
	s := newOpStream(churn, seed)
	h := sha256.New()
	for pairs := 0; pairs < n; {
		st := s.next()
		for _, o := range st.ops[:st.n] {
			fmt.Fprintf(h, "%d %s %s\n", o.kind, o.path, o.to)
			pairs++
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, churn := range []bool{false, true} {
		a, b, other := streamDigest(churn, 42, 10000), streamDigest(churn, 42, 10000), streamDigest(churn, 43, 10000)
		if a != b {
			t.Errorf("churn=%v: the same seed gave two different op streams", churn)
		}
		if a == other {
			t.Errorf("churn=%v: seeds 42 and 43 gave the same op stream", churn)
		}
	}
}

// feed is a test double of the consumer feed: total events in 512-event
// blocks on one store lane, optionally losing one block on the way.
func feed(total, dropBlock int) [][]events.Event {
	var out [][]events.Event
	for start, blk := 0, 0; start < total; start, blk = start+512, blk+1 {
		var batch []events.Event
		for i := start; i < min(start+512, total); i++ {
			batch = append(batch, events.Event{Seq: uint64(i + 1), Op: events.OpModify, Path: hotPath(i % hotFiles)})
		}
		if blk != dropBlock {
			out = append(out, batch)
		}
	}
	return out
}

func TestOracle(t *testing.T) {
	w, _ := findWorkload("hot_inproc")
	const total = 4096
	run := func(batches [][]events.Event) *oracle {
		o := newOracle(w, nil)
		for _, b := range batches {
			o.observe(b)
		}
		o.finish(tierCounts{expected: total, published: total, appended: total})
		return o
	}
	if o := run(feed(total, -1)); o.failed != 0 {
		t.Fatalf("intact feed: %d failed: %s", o.failed, o.first)
	}
	// One dropped block is one seq gap plus 512 undelivered events.
	if o := run(feed(total, 3)); o.failed != 513 {
		t.Errorf("feed with block 3 dropped: failed = %d (%s), want 513", o.failed, o.first)
	}
	dup := feed(total, -1)
	dup = append(dup, dup[2])
	if o := run(dup); o.failed == 0 {
		t.Error("feed with a duplicated block: oracle reported nothing")
	}
	bad := feed(total, -1)
	bad[1][7].Path = "/hot/d00/f4096"
	if o := run(bad); o.failed != 1 {
		t.Errorf("feed with one unknown path: failed = %d, want 1", o.failed)
	}
}

func TestOracleChurnFinalName(t *testing.T) {
	w, _ := findWorkload("churn_cold_4part")
	g := &generator{iterBase: 100, finalDir: []int32{7, 19999}}
	o := newOracle(w, g)
	o.observe([]events.Event{
		{Seq: 4, Op: events.OpDelete, Path: "/churn/d00007/c100"},
		{Seq: 8, Op: events.OpDelete, Path: "/churn/d19999/c101"},
		{Seq: 12, Op: events.OpCreate, Path: "/anything"}, // only unlinks are checked
	})
	if o.failed != 0 {
		t.Fatalf("final names: %d failed: %s", o.failed, o.first)
	}
	o.observe([]events.Event{
		{Seq: 16, Op: events.OpDelete, Path: "/churn/d00008/c100"},                  // renamed elsewhere
		{Seq: 20, Op: events.OpDelete, Path: "/churn/d00007/c102"},                  // never issued
		{Seq: 24, Op: events.OpDelete, Path: "/ParentDirectoryRemoved/c100"},        // resolver gave up
		{Seq: 5, Op: events.OpDelete, Path: "/churn/d00007/c100"},                   // lane 1 starts at 5: fine
		{Seq: 13, Op: events.OpDelete | events.OpIsDir, Path: "/churn/d19999/c101"}, // lane 1 skipped 9
	})
	if o.failed != 4 {
		t.Errorf("failed = %d (%s), want 4", o.failed, o.first)
	}
}

// TestQuickSuite runs every workload end to end at smoke size, traced pass
// and oracle included, and checks the two output forms.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipelines for a few seconds")
	}
	t.Setenv("TMPDIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("quick suite exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	var doc struct {
		Passes []map[string]struct {
			EndToEnd map[string]struct{ Median float64 } `json:"end_to_end"`
			PerLayer map[string]struct{ Value float64 }  `json:"per_layer"`
			Failed   int                                 `json:"failed_events"`
		}
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("-json output: %v\n%s", err, stdout.String())
	}
	if len(doc.Passes) != 1 || len(doc.Passes[0]) != len(workloads) {
		t.Fatalf("-json output holds %d passes, want 1 with %d workloads", len(doc.Passes), len(workloads))
	}
	for name, w := range doc.Passes[0] {
		for _, d := range endToEnd {
			if v := w.EndToEnd[d.name].Median; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
			}
		}
		if w.PerLayer["budget.sum_ns_per_event"].Value <= 0 {
			t.Errorf("%s: the traced pass produced no budget", name)
		}
	}
	// Each workload stresses what it says.
	layer := func(w, m string) float64 { return doc.Passes[0][w].PerLayer[m].Value }
	for _, w := range workloads {
		journal, tcp := layer(w.name, "eventstore.journal_append_ns_per_event") > 0, layer(w.name, "msgq.tcp_hop_ns_per_event") > 0
		if want := w.name == "hot_tcp_journal"; journal != want || tcp != want {
			t.Errorf("%s: journal stage measured = %v, tcp hop measured = %v, want both %v", w.name, journal, tcp, want)
		}
		if got, want := layer(w.name, "eventstore.open_ns_per_event") > 0, w.recovery; got != want {
			t.Errorf("%s: eventstore.open measured = %v, want %v", w.name, got, want)
		}
		if got, want := layer(w.name, "scalable.partition_skew") > 0, w.name == "churn_cold_4part"; got != want {
			t.Errorf("%s: partition_skew reported = %v, want %v", w.name, got, want)
		}
	}
	if hit := layer("churn_cold_4part", "cache.hit_ratio"); hit >= 0.5 {
		t.Errorf("churn_cold_4part: cache.hit_ratio = %.2f, want < 0.5: the working set no longer exceeds the cache", hit)
	}
}

// TestContractLine checks the one-run form BENCHMARK.json's command prints.
func TestContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pipeline")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"--workload", "hot_inproc", "--seed", "3", "--seconds", "1", "--trace", trace}, &stdout, &stderr); code != 0 {
			t.Fatalf("--trace %s exited %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]contractMetric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("--trace %s: last line is not the result object: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
			t.Errorf("--trace %s: correct=%v failed=%d attempted=%d with %d metrics, want %d", trace, res.Correct, res.Failed, res.Attempted, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("--trace %s: metric %s missing or with unit %q, want %q", trace, d.name, m.Unit, d.unit)
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the root BENCHMARK.json and the
// catalogue in main.go saying the same thing.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%s), the benchmark %q (%s)", i, got.Name, got.Why, w.name, w.why)
		}
	}
}
