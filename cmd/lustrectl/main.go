// Command lustrectl drives the simulated Lustre cluster: it builds a
// testbed, runs workloads against it, and dumps Changelogs — the
// operator's view of the substrate the scalable monitor consumes.
//
//	lustrectl -testbed thor -workload output -dump
//	lustrectl -testbed iota -workload perf -duration 2s
//	lustrectl -testbed thor -workload apps -filebench-files 1000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fsmonitor/internal/lustre"
	"fsmonitor/internal/workload"
)

func main() {
	testbed := flag.String("testbed", "thor", "cluster preset: aws, thor, iota")
	wl := flag.String("workload", "output", "workload: output, perf, ior, hacc, filebench, apps")
	duration := flag.Duration("duration", 2*time.Second, "perf workload duration")
	paced := flag.Bool("paced", false, "apply the testbed's calibrated operation latencies")
	dump := flag.Bool("dump", false, "dump Changelog records after the workload")
	maxDump := flag.Int("max-dump", 40, "maximum records to dump per MDT")
	fbFiles := flag.Int("filebench-files", 2000, "filebench file count")
	flag.Parse()

	var cfg lustre.Config
	switch strings.ToLower(*testbed) {
	case "aws":
		cfg = lustre.AWSConfig()
	case "thor":
		cfg = lustre.ThorConfig()
	case "iota":
		cfg = lustre.IotaConfig()
	default:
		fatal(fmt.Errorf("unknown testbed %q", *testbed))
	}
	if !*paced {
		cfg.OpLatency = nil
	}
	cluster := lustre.NewCluster(cfg)
	fmt.Printf("cluster %s: %d MDS, %d OSS x %d OST (%d GB each), %.1f TB total\n",
		cfg.Name, cluster.NumMDS(), cfg.NumOSS, cfg.OSTsPerOSS, cfg.OSTSizeGB,
		float64(cluster.TotalCapacity())/(1<<40))

	var client *lustre.Client
	if *paced {
		client = cluster.PacedClient()
	} else {
		client = cluster.Client()
	}
	target := workload.NewLustreTarget(client)
	start := time.Now()
	switch *wl {
	case "output":
		if err := client.MkdirAll("/test"); err != nil {
			fatal(err)
		}
		if err := workload.OutputScript(target, "/test", 0); err != nil {
			fatal(err)
		}
	case "perf":
		rep, err := workload.RunPerformanceScript(context.Background(),
			[]workload.Target{target}, workload.PerfOptions{Dir: "/perf", Duration: *duration})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("perf: %d creates, %d modifies, %d deletes in %v (%.0f events/s)\n",
			rep.Creates, rep.Modifies, rep.Deletes, rep.Elapsed.Round(time.Millisecond), rep.EventsPerSec())
	case "ior":
		if err := workload.RunIOR(target, workload.IOROptions{}); err != nil {
			fatal(err)
		}
	case "hacc":
		if err := workload.RunHACC(target, workload.HACCOptions{}); err != nil {
			fatal(err)
		}
	case "filebench":
		rep, err := workload.RunFilebench(target, workload.FilebenchOptions{Files: *fbFiles})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("filebench: %d files in %d directories, %.1f MB\n",
			rep.Files, rep.Directories, float64(rep.TotalBytes)/(1<<20))
	case "apps":
		if err := workload.RunIOR(target, workload.IOROptions{}); err != nil {
			fatal(err)
		}
		if err := workload.RunHACC(workload.NewLustreTarget(cluster.Client()), workload.HACCOptions{}); err != nil {
			fatal(err)
		}
		if _, err := workload.RunFilebench(workload.NewLustreTarget(cluster.Client()), workload.FilebenchOptions{Files: *fbFiles}); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown workload %q", *wl))
	}
	fmt.Printf("workload %s completed in %v\n", *wl, time.Since(start).Round(time.Millisecond))

	files, dirs := cluster.Counts()
	fmt.Printf("namespace: %d files, %d directories; OST usage %.1f MB; fid2path calls %d\n",
		files, dirs, float64(cluster.TotalUsed())/(1<<20), cluster.Fid2PathCalls())
	for i := 0; i < cluster.NumMDS(); i++ {
		log, _ := cluster.Changelog(i)
		st := log.Stats()
		fmt.Printf("MDT%d changelog: %d records appended, %d retained\n", i, st.Appended, st.Retained)
		if *dump {
			shown := 0 // a read stops where a Changelog chunk does
			for recs := log.Read(0, *maxDump); len(recs) > 0 && (*maxDump <= 0 || shown < *maxDump); recs = log.Read(recs[len(recs)-1].Index, *maxDump-shown) {
				for _, r := range recs {
					fmt.Printf("  %s\n", r)
				}
				shown += len(recs)
			}
			if st.Retained > shown {
				fmt.Printf("  ... %d more\n", st.Retained-shown)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lustrectl: %v\n", err)
	os.Exit(1)
}
