package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/scalable"
)

func quickOpts() Options {
	return Options{Quick: true, Duration: 800 * time.Millisecond, FilebenchFiles: 500}
}

func TestTableFprint(t *testing.T) {
	tab := Table{
		ID:     "Table X",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"Table X", "demo", "a note", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownTable(t *testing.T) {
	if _, err := Run("table99", Options{}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestTable2Identical(t *testing.T) {
	tab, err := Table2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Errorf("rows = %d, want 10", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[0] != r[1] {
			t.Errorf("platform mismatch: %q vs %q", r[0], r[1])
		}
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "MISMATCH") {
			t.Errorf("note: %s", n)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second measurement")
	}
	tab, err := Table5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: storage, create, modify, delete, total — each with 3 beds.
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse := func(row []string) (a, th, io float64) {
		return atofOrZero(row[1]), atofOrZero(row[2]), atofOrZero(row[3])
	}
	for _, idx := range []int{1, 2, 3, 4} { // the rate rows
		a, th, io := parse(tab.Rows[idx])
		if !(a < th && th < io) {
			t.Errorf("row %q not ordered AWS < Thor < Iota: %v %v %v", tab.Rows[idx][0], a, th, io)
		}
	}
	// delete > modify > create per testbed.
	for col := 1; col <= 3; col++ {
		c := atofOrZero(tab.Rows[1][col])
		m := atofOrZero(tab.Rows[2][col])
		d := atofOrZero(tab.Rows[3][col])
		if !(d > m && m > c) {
			t.Errorf("column %d not ordered delete > modify > create: %v %v %v", col, c, m, d)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second measurement")
	}
	tab, err := Table6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// For each testbed: noCache < withCache <= ~generated. The testbeds'
	// calibrated generation rates only materialize when the host can run
	// the paced workers on schedule; under heavy external CPU contention
	// (e.g. the full bench suite running concurrently) generation itself
	// collapses and the comparison is meaningless, so guard on it.
	expectedGen := []float64{0, 1450, 4500, 8200}
	for col := 1; col <= 3; col++ {
		gen := atofOrZero(tab.Rows[0][col])
		no := atofOrZero(tab.Rows[1][col])
		yes := atofOrZero(tab.Rows[2][col])
		if gen < 0.85*expectedGen[col] {
			t.Logf("col %d: generation %v far below calibrated %v — host overloaded, skipping shape assertions", col, gen, expectedGen[col])
			continue
		}
		if !(no < yes) {
			t.Errorf("col %d: cache did not help (%v vs %v)", col, no, yes)
		}
		if yes < 0.9*gen {
			t.Errorf("col %d: with cache %v far below generation %v", col, yes, gen)
		}
		if no > 0.98*gen {
			t.Errorf("col %d: without cache %v suspiciously close to generation %v", col, no, gen)
		}
	}
}

func TestRobinhoodComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second measurement")
	}
	tab, err := RobinhoodComparison(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fsm := atofOrZero(tab.Rows[0][2])
	rh := atofOrZero(tab.Rows[1][2])
	gen := atofOrZero(tab.Rows[2][2])
	if fsm < 25000 {
		t.Skipf("generation collapsed to %v ev/s — host overloaded", fsm)
	}
	// The architectural margin is only observable when the generated load
	// outpaces Robinhood's single client-side pipeline; FSMonitor can never
	// deliver more events than the workload produced, so when host jitter
	// drops generation to (or below) Robinhood's ceiling the two runs are
	// measuring the scheduler, not the monitors.
	if gen < 1.05*rh {
		t.Skipf("generation %v ev/s did not outpace Robinhood's pipeline (%v ev/s) — comparison premise not met on this host", gen, rh)
	}
	if !(fsm > rh) {
		t.Errorf("FSMonitor (%v) did not beat Robinhood (%v)", fsm, rh)
	}
}

func TestTable9NoLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second measurement")
	}
	tab, err := Table9(Options{Quick: true, FilebenchFiles: 300})
	if err != nil {
		t.Fatal(err)
	}
	var sawNoLoss bool
	for _, n := range tab.Notes {
		if strings.Contains(n, "no loss") {
			sawNoLoss = true
		}
	}
	if !sawNoLoss {
		t.Errorf("notes = %v", tab.Notes)
	}
	// IOR row: exactly one create/close/delete.
	for _, r := range tab.Rows {
		if r[0] == "IOR" {
			if r[1] != "1" || r[2] != "1" || r[3] != "1" {
				t.Errorf("IOR row = %v", r)
			}
		}
	}
}

func atofOrZero(s string) float64 {
	var v float64
	_, _ = fmtSscan(s, &v)
	return v
}

func fmtSscan(s string, v *float64) (int, error) {
	var f float64
	n, err := fmt.Sscanf(s, "%g", &f)
	*v = f
	return n, err
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second measurement")
	}
	tab, err := Table3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		gen := atofOrZero(r[1])
		fsm := atofOrZero(r[2])
		other := atofOrZero(r[3])
		// FSMonitor tracks the generation rate within 10%.
		if fsm < 0.9*gen {
			t.Errorf("%s: FSMonitor %v far below generation %v", r[0], fsm, gen)
		}
		// FSWatch trails substantially on macOS; inotifywait does not.
		if r[0] == "macOS" && other > 0.85*gen {
			t.Errorf("FSWatch reported %v of %v generated (expected a large gap)", other, gen)
		}
		if r[0] != "macOS" && other < 0.8*gen {
			t.Errorf("%s: inotifywait reported %v of %v", r[0], other, gen)
		}
	}
}

func TestTable4Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second measurement")
	}
	tab, err := Table4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Rows[0]) != 5 {
		t.Fatalf("table shape = %dx%d", len(tab.Rows), len(tab.Rows[0]))
	}
}

func TestTable7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second measurement")
	}
	tab, err := Table7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Row order: no-cache collector, cached collector, aggregator, consumer.
	for col := 1; col <= 3; col++ {
		noCache := atofOrZero(tab.Rows[0][col])
		cached := atofOrZero(tab.Rows[1][col])
		agg := atofOrZero(tab.Rows[2][col])
		con := atofOrZero(tab.Rows[3][col])
		if cached >= noCache {
			t.Errorf("col %d: cache did not reduce collector CPU (%v vs %v)", col, cached, noCache)
		}
		if agg >= cached || con >= cached {
			t.Errorf("col %d: aggregator/consumer (%v/%v) not cheaper than collector (%v)", col, agg, con, cached)
		}
	}
}

func TestTable8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second measurement")
	}
	tab, runs, err := table8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 || len(runs) != 6 {
		t.Fatalf("rows = %d, runs = %d", len(tab.Rows), len(runs))
	}
	// What the table is about, in numbers that repeat: the 5000-entry cache
	// makes strictly fewer fid2path calls per record than the 200-entry one
	// and so spends less collector busy time over the same window.
	small, big := runs[0].collectors[0], runs[4].collectors[0]
	perRecord := func(c scalable.CollectorStats) float64 {
		return float64(c.Fid2PathCalls) / float64(c.RecordsRead)
	}
	if perRecord(big) >= perRecord(small) {
		t.Errorf("cache 5000 makes %.3f fid2path calls per record, not fewer than cache 200's %.3f", perRecord(big), perRecord(small))
	}
	if big.BusyTime >= small.BusyTime {
		t.Errorf("cache 5000 busy time %v not below cache 200 busy time %v", big.BusyTime, small.BusyTime)
	}
	// The two reported rates are ~1 s wall-clock measurements that can both
	// sit on the table's plateau, and a paced generator a neighbour starves
	// lowers the rate of whichever run it hits; so each is taken as a share
	// of its own run's generation rate, and only a real inversion fails.
	smallShare, bigShare := runs[0].reportedRate/runs[0].genRate, runs[4].reportedRate/runs[4].genRate
	if bigShare < 0.9*smallShare {
		t.Errorf("cache 5000 reports %.2f of what is generated, more than 10%% below cache 200's %.2f", bigShare, smallShare)
	}
}
