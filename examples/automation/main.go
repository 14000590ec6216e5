// Research automation (paper §VI-A): use FSMonitor to trigger data-
// management flows in response to file-system events, in the style of
// Globus Automate / Ripple.
//
// A flow is a pipeline of named steps (validate → extract → catalog →
// replicate). The automation client subscribes to FSMonitor, builds a
// metadata document for each matching event ("our client constructs a
// JSON document of metadata, such as the file type, size, owner, and
// location and transmits the data to a pre-defined flow"), and executes
// the flow reliably, retrying failed steps.
//
// The storage here is a simulated Lustre cluster monitored through the
// scalable DSI — the scenario the paper motivates: instrument data lands
// on a parallel file system and must be processed the moment it appears.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"os"
	"path"
	"strings"
	"sync"
	"time"

	"fsmonitor"
)

// FlowStep is one action in a flow.
type FlowStep struct {
	Name string
	Run  func(doc map[string]any) error
}

// Flow is a reliably-executed pipeline of steps.
type Flow struct {
	Name    string
	Steps   []FlowStep
	Retries int
}

// Execute runs every step with retry, returning the first persistent
// failure.
func (f *Flow) Execute(doc map[string]any) error {
	for _, step := range f.Steps {
		var err error
		for attempt := 0; attempt <= f.Retries; attempt++ {
			if err = step.Run(doc); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("flow %s step %s: %w", f.Name, step.Name, err)
		}
	}
	return nil
}

// Trigger binds an event filter to a flow.
type Trigger struct {
	Filter fsmonitor.Filter
	Match  func(e fsmonitor.Event) bool
	Flow   *Flow
}

func main() {
	// Operational logging: component-tagged structured records from the
	// monitor and the automation client share one slog handler.
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

	// The experiment facility's parallel store: a 4-MDS Lustre system.
	cluster := fsmonitor.NewLustreCluster(fsmonitor.LustreConfig{NumMDS: 4, NumOSS: 4, OSTsPerOSS: 4, OSTSizeGB: 100})
	m, err := fsmonitor.WatchLustre(cluster, "/mnt/lustre", 0, fsmonitor.WithLogger(logger))
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	var mu sync.Mutex
	catalog := map[string]map[string]any{}
	replicas := map[string]bool{}
	var flowRuns int

	ingestFlow := &Flow{
		Name:    "ingest-scan",
		Retries: 2,
		Steps: []FlowStep{
			{Name: "validate", Run: func(doc map[string]any) error {
				if doc["size"].(int64) <= 0 {
					return fmt.Errorf("empty scan %v", doc["path"])
				}
				return nil
			}},
			{Name: "extract", Run: func(doc map[string]any) error {
				doc["dataset"] = path.Base(path.Dir(doc["path"].(string)))
				return nil
			}},
			{Name: "catalog", Run: func(doc map[string]any) error {
				mu.Lock()
				defer mu.Unlock()
				catalog[doc["path"].(string)] = doc
				return nil
			}},
			{Name: "replicate", Run: func(doc map[string]any) error {
				mu.Lock()
				defer mu.Unlock()
				replicas[doc["path"].(string)] = true
				return nil
			}},
		},
	}
	cleanupFlow := &Flow{
		Name: "retract",
		Steps: []FlowStep{
			{Name: "decatalog", Run: func(doc map[string]any) error {
				mu.Lock()
				defer mu.Unlock()
				delete(catalog, doc["path"].(string))
				delete(replicas, doc["path"].(string))
				return nil
			}},
		},
	}
	triggers := []Trigger{
		{
			Filter: fsmonitor.Filter{Ops: fsmonitor.OpClose, Under: "/instrument", Recursive: true},
			Match:  func(e fsmonitor.Event) bool { return strings.HasSuffix(e.Path, ".h5") },
			Flow:   ingestFlow,
		},
		{
			Filter: fsmonitor.Filter{Ops: fsmonitor.OpDelete, Under: "/instrument", Recursive: true},
			Match:  func(e fsmonitor.Event) bool { return strings.HasSuffix(e.Path, ".h5") },
			Flow:   cleanupFlow,
		},
	}

	// One subscription per trigger: each consumer filters client-side.
	var wg sync.WaitGroup
	for _, tr := range triggers {
		sub, err := m.Subscribe(tr.Filter, 0)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(tr Trigger, sub *fsmonitor.Subscription) {
			defer wg.Done()
			for batch := range sub.C() {
				for _, e := range batch {
					if tr.Match != nil && !tr.Match(e) {
						continue
					}
					doc := buildDocument(cluster, e)
					if err := tr.Flow.Execute(doc); err != nil {
						logger.Error("flow failed", "component", "automation", "flow", tr.Flow.Name, "err", err)
						continue
					}
					mu.Lock()
					flowRuns++
					mu.Unlock()
					js, _ := json.Marshal(doc)
					fmt.Printf("flow %-12s <- %s\n", tr.Flow.Name, js)
				}
			}
			if seq, evicted := sub.Evicted(); evicted {
				logger.Warn("subscription evicted for lagging", "component", "automation", "flow", tr.Flow.Name, "through_seq", seq)
			}
		}(tr, sub)
	}

	// The instrument writes scan files; an unrelated user works elsewhere
	// (those events must not trigger flows).
	cl := cluster.Client()
	must(cl.MkdirAll("/instrument/run42"))
	must(cl.MkdirAll("/home/user"))
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/instrument/run42/scan%03d.h5", i)
		must(cl.Create(p))
		must(cl.WriteData(p, int64(1024*(i+1))))
		must(cl.Write(p, 64)) // metadata-visible append
		must(cl.CloseFile(p))
		time.Sleep(20 * time.Millisecond) // instrument inter-scan gap
	}
	must(cl.Create("/instrument/run42/notes.txt")) // wrong suffix: ignored
	must(cl.CloseFile("/instrument/run42/notes.txt"))
	must(cl.Create("/home/user/draft.h5")) // outside /instrument: ignored
	must(cl.CloseFile("/home/user/draft.h5"))
	time.Sleep(200 * time.Millisecond)              // let the ingest flows finish
	must(cl.Unlink("/instrument/run42/scan000.h5")) // retract one scan

	time.Sleep(700 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\n%d flow executions; catalog holds %d datasets, %d replicated\n",
		flowRuns, len(catalog), len(replicas))
	if flowRuns != 6 || len(catalog) != 4 || len(replicas) != 4 {
		log.Fatalf("expected 6 flow runs and 4 catalogued scans after one retraction, got %d runs, %d/%d", flowRuns, len(catalog), len(replicas))
	}
	fmt.Println("automation example completed successfully")
}

// buildDocument assembles the metadata JSON document for a data event.
func buildDocument(cluster *fsmonitor.LustreCluster, e fsmonitor.Event) map[string]any {
	doc := map[string]any{
		"path":     e.Path,
		"location": e.FullPath(),
		"event":    e.Op.String(),
		"time":     e.Time.UTC().Format(time.RFC3339Nano),
		"size":     int64(0),
		"type":     strings.TrimPrefix(path.Ext(e.Path), "."),
	}
	if info, err := cluster.Stat(e.Path); err == nil {
		doc["size"] = info.Size
		doc["mdt"] = info.MDT
	}
	return doc
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
