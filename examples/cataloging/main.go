// Responsive cataloging (paper §VI-B): maintain a searchable metadata
// catalog of a large store from events rather than by crawling, in the
// style of Skluma + Globus Search.
//
// "As storage systems grow to manage hundreds of petabytes ... the cost to
// crawl and index the data is likely to become increasingly prohibitive."
// This example attaches an extractor pipeline to FSMonitor: new files are
// type-inferred and passed through per-type metadata extractors; renames
// move catalog entries; deletions retract them — the index stays current
// without a single crawl.
package main

import (
	"fmt"
	"log"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"fsmonitor"
)

// Record is one catalog entry.
type Record struct {
	Path     string
	Type     string
	Size     int64
	Keywords []string
	Indexed  time.Time
}

// Extractor derives metadata for one inferred file type (the Skluma
// analogue: "a suite of metadata extraction tools that can be applied to
// data").
type Extractor func(cluster *fsmonitor.LustreCluster, p string) []string

// Catalog is the searchable index (the Globus Search analogue).
type Catalog struct {
	mu      sync.Mutex
	byPath  map[string]*Record
	keyword map[string]map[string]bool // keyword -> set of paths
}

func NewCatalog() *Catalog {
	return &Catalog{byPath: map[string]*Record{}, keyword: map[string]map[string]bool{}}
}

func (c *Catalog) Put(r *Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(r.Path)
	c.byPath[r.Path] = r
	for _, k := range r.Keywords {
		if c.keyword[k] == nil {
			c.keyword[k] = map[string]bool{}
		}
		c.keyword[k][r.Path] = true
	}
}

func (c *Catalog) Move(oldPath, newPath string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.byPath[oldPath]
	if !ok {
		return
	}
	c.removeLocked(oldPath)
	r.Path = newPath
	c.byPath[newPath] = r
	for _, k := range r.Keywords {
		if c.keyword[k] == nil {
			c.keyword[k] = map[string]bool{}
		}
		c.keyword[k][newPath] = true
	}
}

func (c *Catalog) Remove(p string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(p)
}

func (c *Catalog) removeLocked(p string) {
	r, ok := c.byPath[p]
	if !ok {
		return
	}
	delete(c.byPath, p)
	for _, k := range r.Keywords {
		delete(c.keyword[k], p)
		if len(c.keyword[k]) == 0 {
			delete(c.keyword, k)
		}
	}
}

// Search returns the paths matching a keyword, sorted.
func (c *Catalog) Search(keyword string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for p := range c.keyword[keyword] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byPath)
}

// inferType is the pipeline's type inference step.
func inferType(p string) string {
	switch strings.TrimPrefix(path.Ext(p), ".") {
	case "csv", "tsv":
		return "tabular"
	case "txt", "md", "log":
		return "freetext"
	case "png", "jpg", "svg":
		return "image"
	case "h5", "nc":
		return "scientific"
	default:
		return "unknown"
	}
}

func main() {
	cluster := fsmonitor.NewLustreCluster(fsmonitor.LustreConfig{NumMDS: 2, NumOSS: 4, OSTsPerOSS: 2, OSTSizeGB: 100})
	m, err := fsmonitor.WatchLustre(cluster, "/mnt/lustre", 0)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	extractors := map[string]Extractor{
		"tabular": func(cl *fsmonitor.LustreCluster, p string) []string {
			return []string{"tabular", "columns", path.Base(path.Dir(p))}
		},
		"freetext": func(cl *fsmonitor.LustreCluster, p string) []string {
			return []string{"text", "keywords", path.Base(path.Dir(p))}
		},
		"image": func(cl *fsmonitor.LustreCluster, p string) []string {
			return []string{"image", "plot", path.Base(path.Dir(p))}
		},
		"scientific": func(cl *fsmonitor.LustreCluster, p string) []string {
			return []string{"hdf5", "dataset", path.Base(path.Dir(p))}
		},
	}
	catalog := NewCatalog()

	sub, err := m.Subscribe(fsmonitor.Filter{
		Recursive: true,
		Ops: fsmonitor.OpClose | fsmonitor.OpDelete | fsmonitor.OpMovedFrom |
			fsmonitor.OpMovedTo,
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range sub.C() {
			for _, e := range batch {
				switch {
				case e.Op.HasAny(fsmonitor.OpMovedTo):
					if e.OldPath != "" {
						catalog.Move(e.OldPath, e.Path)
					}
				case e.Op.HasAny(fsmonitor.OpDelete):
					catalog.Remove(e.Path)
				case e.Op.HasAny(fsmonitor.OpClose) && !e.IsDir():
					ty := inferType(e.Path)
					rec := &Record{Path: e.Path, Type: ty, Indexed: time.Now()}
					if info, err := cluster.Stat(e.Path); err == nil {
						rec.Size = info.Size
					}
					if ex, ok := extractors[ty]; ok {
						rec.Keywords = ex(cluster, e.Path)
					} else {
						rec.Keywords = []string{"unknown"}
					}
					catalog.Put(rec)
				}
			}
		}
		if seq, evicted := sub.Evicted(); evicted {
			log.Printf("catalog subscription evicted for lagging; complete through seq %d", seq)
		}
	}()

	// Users populate the store.
	cl := cluster.Client()
	must(cl.MkdirAll("/proj/climate"))
	must(cl.MkdirAll("/proj/genomics"))
	files := []struct {
		path string
		size int64
	}{
		{"/proj/climate/temps.csv", 4096},
		{"/proj/climate/readme.txt", 512},
		{"/proj/climate/model.h5", 1 << 20},
		{"/proj/genomics/samples.csv", 8192},
		{"/proj/genomics/plot.png", 2048},
		{"/proj/genomics/notes.md", 256},
	}
	for _, f := range files {
		must(cl.Create(f.path))
		must(cl.WriteData(f.path, f.size))
		must(cl.Write(f.path, 1))
		must(cl.CloseFile(f.path))
	}
	time.Sleep(300 * time.Millisecond)

	fmt.Printf("catalog holds %d records without any crawl\n", catalog.Len())
	fmt.Printf("search 'tabular':  %v\n", catalog.Search("tabular"))
	fmt.Printf("search 'climate':  %v\n", catalog.Search("climate"))

	// Data moves and deletions keep the index current.
	must(cl.MkdirAll("/archive"))
	must(cl.Rename("/proj/climate/temps.csv", "/archive/temps-2026.csv"))
	must(cl.Unlink("/proj/genomics/plot.png"))
	time.Sleep(300 * time.Millisecond)

	fmt.Printf("\nafter a move and a delete (%d records):\n", catalog.Len())
	fmt.Printf("search 'tabular':  %v\n", catalog.Search("tabular"))
	fmt.Printf("search 'image':    %v\n", catalog.Search("image"))

	sub.Close()
	<-done
	if catalog.Len() != 5 {
		log.Fatalf("expected 5 records, got %d", catalog.Len())
	}
	got := catalog.Search("tabular")
	if len(got) != 2 || got[0] != "/archive/temps-2026.csv" {
		log.Fatalf("move not reflected in index: %v", got)
	}
	if len(catalog.Search("image")) != 0 {
		log.Fatal("deleted file still indexed")
	}
	fmt.Println("\ncataloging example completed successfully")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
