// Command benchmark is the repository's benchmark for the event journey:
// unpaced drain throughput, capture→deliver latency, crash recovery and a
// per-layer budget. It measures every layer from outside, through the public
// functions listed in README.md ("Pinned surface"), and claims no gain.
//
// Two ways in:
//
//	go run . [-quick] [-aa] [-json] [-seed n]    the whole suite, every metric by name
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                             one run, result as the last line (BENCHMARK.json's command)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// metricDef is one catalogue entry; BENCHMARK.json lists the same names,
// units, directions and bounds (bench_test.go holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// best marks an end-to-end metric that reports the better quartile of the
	// run's rounds instead of their median.
	best bool
}

// The timing bounds are the widest the driver's contract allows. This host's
// speed drifts by ±12% over minutes (set-up time and throughput move
// together), so ten runs of the same code spread 3-10% on the timing metrics
// in a quiet hour and 10-20% in a busy one, and a 10% bound would reject the
// benchmark against itself. The two
// allocation metrics repeat to 0.1% and carry the sharp bound.
//
// The drain's two timing metrics report the better quartile of the rounds
// (q3 of events_per_s, q1 of cpu_us_per_event). What disturbs a drain that
// keeps both cores busy is a neighbour on the shared host, in stretches of
// seconds to half a minute, and it only ever makes a round slower: the better
// quartile still reads the code's own speed when up to three rounds in four
// were hit, and unlike the best round it does not hang on one lucky sample.
// Over ten same-code runs it spread 5.5% on hot_inproc where the median
// spread 16%. Latency keeps the median: a busy host also makes timers more
// punctual, so its noise has two sides.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25, best: true},
	{name: "cpu_us_per_event", unit: "us", better: "lower", bound: 0.25, best: true},
	{name: "allocs_per_event", unit: "count", better: "lower", bound: 0.03},
	{name: "alloc_bytes_per_event", unit: "B", better: "lower", bound: 0.03},
	{name: "deliver_p50_ms", unit: "ms", better: "lower", bound: 0.25},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "lustre.changelog_read_ns_per_record", unit: "ns", better: "lower"},
		{name: "lustre.changelog_backlog_peak", unit: "count", better: "lower"},
		{name: "resolve.translate_ns_per_event", unit: "ns", better: "lower"},
		{name: "resolve.fid2path_calls_per_event", unit: "count", better: "lower"},
		{name: "resolve.stale_per_event", unit: "count", better: "lower"},
		{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
		{name: "cache.evictions_per_event", unit: "count", better: "lower"},
		{name: "events.wire_encode_ns_per_event", unit: "ns", better: "lower"},
		{name: "events.wire_decode_ns_per_event", unit: "ns", better: "lower"},
		{name: "events.wire_bytes_per_event", unit: "B", better: "lower"},
		{name: "events.materialize_ns_per_event", unit: "ns", better: "lower"},
		{name: "msgq.inproc_hop_ns_per_event", unit: "ns", better: "lower"},
		{name: "msgq.tcp_hop_ns_per_event", unit: "ns", better: "lower"},
		{name: "msgq.tcp_bytes_per_event", unit: "B", better: "lower"},
		{name: "scalable.partition_split_ns_per_event", unit: "ns", better: "lower"},
		{name: "scalable.partition_skew", unit: "ratio", better: "lower"},
	}
	for _, suffix := range []string{".blocked_share", ".queue_peak"} {
		unit := "ratio"
		if suffix == ".queue_peak" {
			unit = "count"
		}
		for _, st := range blockedStages {
			defs = append(defs, metricDef{name: "scalable." + st + suffix, unit: unit, better: "lower"})
		}
	}
	return append(defs,
		metricDef{name: "eventstore.append_ns_per_event", unit: "ns", better: "lower"},
		metricDef{name: "eventstore.journal_append_ns_per_event", unit: "ns", better: "lower"},
		metricDef{name: "eventstore.journal_bytes_per_event", unit: "B", better: "lower"},
		metricDef{name: "eventstore.evicted_per_event", unit: "count", better: "lower"},
		metricDef{name: "eventstore.open_ns_per_event", unit: "ns", better: "lower"},
		metricDef{name: "eventstore.since_ns_per_event", unit: "ns", better: "lower"},
		metricDef{name: "scalable.recovery_wire_ns_per_event", unit: "ns", better: "lower"},
		metricDef{name: "consumer.deliver_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "consumer.latency_samples", unit: "count", better: "higher"},
		metricDef{name: "consumer.recovered_events", unit: "count", better: "lower"},
		metricDef{name: "generator.late_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "generator.ops_per_s", unit: "1/s", better: "higher"},
		metricDef{name: "budget.sum_ns_per_event", unit: "ns", better: "lower"},
		metricDef{name: "budget.unattributed_ns_per_event", unit: "ns", better: "lower"},
	)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and print its result object as the last line (default: the whole suite)")
	seed := fs.Int64("seed", 1, "seed of the generator's single math/rand source")
	seconds := fs.Int("seconds", 30, "measured seconds per workload: rounds of one drain and one open-loop segment, 5 at least, then as many as fit")
	trace := fs.Int("trace", -1, "with -workload: 0 reports the end-to-end metrics, 1 adds the traced pass and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace JSON of the traced pass (default: <tmp>/fsmon-bench-trace-<workload>.json)")
	quick := fs.Bool("quick", false, "smoke sizing: 1 warm-up + 2 rounds of 50k events and 0.3 s of open loop each, oracle on")
	aa := fs.Bool("aa", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	asJSON := fs.Bool("json", false, "suite mode: emit one JSON document instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	size := func(w workload) sizing {
		if *quick {
			return quickSizing
		}
		return sizeFor(w, *seconds)
	}
	out := func(w workload) string {
		if *traceOut != "" {
			return *traceOut
		}
		return filepath.Join(os.TempDir(), "fsmon-bench-trace-"+w.name+".json")
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(w, size(w), *seed, *trace == 1, out(w))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printHeader(stdout, *seed)
		printResult(stdout, res)
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		fmt.Fprintln(stdout, contractLine(res, defs))
		if res.failed > 0 {
			return 1
		}
		return 0
	}

	passes := 1
	if *aa {
		passes = 2
	}
	suites := make([][]*result, passes)
	failed := false
	if !*asJSON {
		printHeader(stdout, *seed)
	}
	// With -aa the two passes run back to back, each over all workloads in
	// turn, so host drift hits every workload alike.
	for p := range suites {
		for _, w := range workloads {
			res, err := runWorkload(w, size(w), *seed, true, out(w))
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			suites[p] = append(suites[p], res)
			failed = failed || res.failed > 0
			if !*asJSON {
				printResult(stdout, res)
			}
		}
	}
	if *asJSON {
		if err := json.NewEncoder(stdout).Encode(suiteDocument(suites, *seed)); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *aa && !compareAA(stdout, suites[0], suites[1]) {
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

func printHeader(w io.Writer, seed int64) {
	fmt.Fprintf(w, "fsmonitor benchmark: nproc=%d GOMAXPROCS=%d %s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed)
}

// printResult prints every metric by name with its unit: end-to-end metrics
// with their quartiles over the timed rounds, then the layer metrics the run
// produced.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s (seed %d)\n", res.workload, res.seed)
	for _, d := range endToEnd {
		s, ok := res.e2e[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-46s %14.4f %-5s  q1 %.4f  median %.4f  q3 %.4f  n=%d  (%s is better, bound %.0f%%)\n",
			d.name, s.value, d.unit, s.q1, s.median, s.q3, s.n, d.better, d.bound*100)
	}
	fmt.Fprintf(w, "  %-46s %14d count  of %d attempted_events\n", "failed_events", res.failed, res.attempted)
	for _, d := range perLayer {
		if v, ok := res.layer[d.name]; ok {
			fmt.Fprintf(w, "  %-46s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if sum, ok := res.layer["budget.sum_ns_per_event"]; ok {
		fmt.Fprintf(w, "  budget: layers sum to %.0f ns/event beside cpu_us_per_event = %.0f ns/event\n",
			sum, res.e2e["cpu_us_per_event"].value*1000)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAILED  %s\n", f)
	}
	for _, f := range res.warnings {
		fmt.Fprintf(w, "  WARNING %s\n", f)
	}
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the result object BENCHMARK.json's driver reads: the
// listed metrics exactly, a layer metric the workload does not exercise as 0.
func contractLine(res *result, defs []metricDef) string {
	ms := map[string]contractMetric{}
	for _, d := range defs {
		v := res.layer[d.name]
		if s, ok := res.e2e[d.name]; ok {
			v = s.value
		}
		ms[d.name] = contractMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   ms,
	})
	if err != nil {
		panic(err) // only NaN/Inf can fail here, and every value is a finite ratio of counters
	}
	return string(line)
}

// suiteDocument is the -json form: the same metrics as the text, one document.
func suiteDocument(suites [][]*result, seed int64) map[string]any {
	type e2eOut struct {
		Value  float64 `json:"value"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Rounds int     `json:"rounds"`
		Unit   string  `json:"unit"`
	}
	var passes []any
	for _, suite := range suites {
		ws := map[string]any{}
		for _, res := range suite {
			e2e := map[string]e2eOut{}
			for _, d := range endToEnd {
				if s, ok := res.e2e[d.name]; ok {
					e2e[d.name] = e2eOut{s.value, s.median, s.q1, s.q3, s.n, d.unit}
				}
			}
			layer := map[string]contractMetric{}
			for _, d := range perLayer {
				if v, ok := res.layer[d.name]; ok {
					layer[d.name] = contractMetric{v, d.unit}
				}
			}
			ws[res.workload] = map[string]any{
				"end_to_end": e2e, "per_layer": layer,
				"attempted_events": res.attempted, "failed_events": res.failed,
				"failures": res.failures, "warnings": res.warnings,
			}
		}
		passes = append(passes, ws)
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": seed, "passes": passes,
	}
}

// compareAA prints, per end-to-end metric and workload, run1 / run2 /
// relative difference / bound, and reports whether every pair is inside its
// bound. The difference is signed in the metric's own direction: positive
// means the second run was worse.
func compareAA(w io.Writer, a, b []*result) bool {
	fmt.Fprintf(w, "\n== A/A: the same code twice\n  %-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "run1", "run2", "diff", "bound")
	ok := true
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].e2e[d.name].value, b[i].e2e[d.name].value
			diff := (y - x) / x
			if d.better == "higher" {
				diff = -diff
			}
			verdict := ""
			if math.Abs(diff) > d.bound {
				verdict = "  OUTSIDE BOUND"
				ok = false
			}
			fmt.Fprintf(w, "  %-18s %-24s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", a[i].workload, d.name, x, y, diff*100, d.bound*100, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(w, "  A/A failed: a metric that cannot pass belongs in the per-layer section")
	}
	return ok
}
