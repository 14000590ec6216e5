package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/scalable"
	"fsmonitor/internal/workload"
)

// Table9 regenerates Table IX: FSMonitor's event stream while IOR,
// HACC-I/O, and Filebench run simultaneously on the Thor testbed
// (§V-D6).
func Table9(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		ID:    "Table IX",
		Title: "FSMonitor events for IOR, HACC-IO and Filebench (Thor, concurrent)",
	}
	cfg := lustre.ThorConfig()
	cluster := lustre.NewCluster(cfg)
	mon, err := scalable.Deploy(cluster, scalable.DeployOptions{CacheSize: 5000})
	if err != nil {
		return t, err
	}
	defer mon.Close()
	con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		return t, err
	}
	defer con.Close()

	// The three applications run simultaneously on separate clients
	// (unpaced: Table IX is about completeness and ordering, not rates).
	haccOpts := workload.HACCOptions{Processes: 256}
	iorOpts := workload.IOROptions{Processes: 128}
	fbOpts := workload.FilebenchOptions{Files: opts.FilebenchFiles}
	if opts.Quick {
		haccOpts.Processes = 64
		iorOpts.Processes = 32
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		errCh <- workload.RunHACC(workload.NewLustreTarget(cluster.Client()), haccOpts)
	}()
	go func() {
		defer wg.Done()
		errCh <- workload.RunIOR(workload.NewLustreTarget(cluster.Client()), iorOpts)
	}()
	go func() {
		defer wg.Done()
		_, err := workload.RunFilebench(workload.NewLustreTarget(cluster.Client()), fbOpts)
		errCh <- err
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return t, err
		}
	}

	// Collect everything the monitor reports.
	expected := uint64(0)
	for i := 0; i < cluster.NumMDS(); i++ {
		log, _ := cluster.Changelog(i)
		expected += log.Stats().Appended
	}
	var all []events.Event
	deadline := time.Now().Add(3 * time.Minute)
	for uint64(len(all)) < expected && time.Now().Before(deadline) {
		select {
		case b := <-con.C():
			all = append(all, b...)
		case <-time.After(300 * time.Millisecond):
		}
	}

	// Count per application and event type.
	counts := map[string]map[string]int{}
	bump := func(app, kind string) {
		if counts[app] == nil {
			counts[app] = map[string]int{}
		}
		counts[app][kind]++
	}
	var firstHACCCreate, firstIORCreate, firstFBCreate, firstHACCDelete string
	for _, e := range all {
		app := ""
		switch {
		case strings.HasPrefix(e.Path, "/hacc-io/"):
			app = "HACC-I/O"
		case strings.HasPrefix(e.Path, "/ior/"):
			app = "IOR"
		case strings.HasPrefix(e.Path, "/bigfileset/"):
			app = "Filebench"
		default:
			continue
		}
		switch {
		case e.Op.Has(events.OpCreate | events.OpIsDir):
			bump(app, "MKDIR")
		case e.Op.HasAny(events.OpCreate):
			bump(app, "CREATE")
			line := fmt.Sprintf("/mnt/lustre CREATE %s", e.Path)
			switch app {
			case "HACC-I/O":
				if firstHACCCreate == "" {
					firstHACCCreate = line
				}
			case "IOR":
				if firstIORCreate == "" {
					firstIORCreate = line
				}
			case "Filebench":
				if firstFBCreate == "" {
					firstFBCreate = line
				}
			}
		case e.Op.HasAny(events.OpDelete):
			bump(app, "DELETE")
			if app == "HACC-I/O" && firstHACCDelete == "" {
				firstHACCDelete = fmt.Sprintf("/mnt/lustre DELETE %s", e.Path)
			}
		case e.Op.HasAny(events.OpClose):
			bump(app, "CLOSE")
		}
	}
	t.Header = []string{"Application", "CREATE", "CLOSE", "DELETE", "MKDIR"}
	apps := make([]string, 0, len(counts))
	for app := range counts {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		c := counts[app]
		t.Rows = append(t.Rows, []string{
			app,
			fmt.Sprintf("%d", c["CREATE"]),
			fmt.Sprintf("%d", c["CLOSE"]),
			fmt.Sprintf("%d", c["DELETE"]),
			fmt.Sprintf("%d", c["MKDIR"]),
		})
	}
	for _, line := range []string{firstHACCCreate, firstIORCreate, firstFBCreate, firstHACCDelete} {
		if line != "" {
			t.Notes = append(t.Notes, "sample: "+line)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("reported %d of %d journalled events (no loss)", len(all), expected),
		fmt.Sprintf("paper (full scale): IOR(SSF) 1 create/delete; HACC FPP 256 creates+deletes; Filebench 50000 creates — this run: IOR %d procs, HACC %d procs, Filebench %d files",
			iorOpts.Processes, haccOpts.Processes, fbOpts.Files))
	return t, nil
}
