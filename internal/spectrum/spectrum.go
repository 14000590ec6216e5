// Package spectrum simulates IBM Spectrum Scale (formerly GPFS) with File
// Audit Logging — the second distributed file system the paper names as a
// target for the scalable-monitor design (§II-B2: "Spectrum Scale File
// Audit Logging takes locally generated file system events and puts them
// on a multi-node message queue from which they are consumed and written
// to a retention enabled fileset. Therefore, FSMonitor can be extended to
// build a scalable monitoring solution for Spectrum Scale").
//
// The simulation follows that pipeline: protocol nodes perform file
// operations on a shared namespace and emit JSON audit records (the LWE
// schema: event name, path, node, inode) onto a message queue; a consumer
// drains the queue into the retention-enabled audit fileset, which
// downstream readers (the Spectrum DSI) tail by offset.
package spectrum

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fsmonitor/internal/msgq"
	"fsmonitor/internal/vfs"
)

// Audit event names, following Spectrum Scale's file-audit-logging
// vocabulary.
const (
	EvCreate      = "CREATE"
	EvOpen        = "OPEN"
	EvClose       = "CLOSE"
	EvDestroy     = "DESTROY" // file removal
	EvRename      = "RENAME"
	EvUnlink      = "UNLINK" // directory entry removal
	EvRmdir       = "RMDIR"
	EvXattrChange = "XATTRCHANGE"
	EvACLChange   = "ACLCHANGE"
	EvGPFSAttr    = "GPFSATTR" // attribute update (chmod etc.)
)

// Record is one audit entry in the retention fileset, serialized as JSON
// (the audit fileset stores one JSON document per line).
type Record struct {
	Seq       uint64 `json:"seq"`
	Event     string `json:"event"`
	Path      string `json:"path"`
	OldPath   string `json:"oldPath,omitempty"`
	Inode     uint64 `json:"inode"`
	IsDir     bool   `json:"isDir,omitempty"`
	NodeName  string `json:"nodeName"`
	FSName    string `json:"fsName"`
	Cluster   string `json:"clusterName"`
	EventTime string `json:"eventTime"`
	BytesRead int64  `json:"bytesRead,omitempty"`
}

// Config describes a simulated Spectrum Scale cluster.
type Config struct {
	Name      string // cluster name (default "gpfs-cluster")
	FSName    string // file system name (default "gpfs0")
	Nodes     int    // protocol nodes (default 2)
	Retention int    // max records retained in the audit fileset (0 = unbounded)
}

// Cluster is the simulated file system plus its audit pipeline.
type Cluster struct {
	cfg   Config
	fs    *vfs.FS
	pub   *msgq.Pub // every node's producer
	sub   *msgq.Sub
	mu    sync.Mutex
	audit []Record // the retention-enabled audit fileset
	first uint64   // seq of audit[0]
	next  uint64
	wg    sync.WaitGroup
	once  sync.Once
}

// New builds the cluster and starts the audit pipeline.
func New(cfg Config) (*Cluster, error) {
	if cfg.Name == "" {
		cfg.Name = "gpfs-cluster"
	}
	if cfg.FSName == "" {
		cfg.FSName = "gpfs0"
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	// The queue is lossless, as the collector hop is: a full consumer
	// queue holds the node that publishes.
	c := &Cluster{cfg: cfg, fs: vfs.New(), next: 1, pub: msgq.NewPub(msgq.WithBlockOnFull()), sub: msgq.NewSub()}
	ep := fmt.Sprintf("inproc://gpfs-audit-%p", c)
	c.sub.Subscribe(auditTopic)
	err := c.pub.Bind(ep)
	if err == nil {
		err = c.sub.Connect(ep)
	}
	if err == nil {
		err = c.sub.WaitReady(5 * time.Second)
	}
	if err != nil {
		c.sub.Close()
		c.pub.Close()
		return nil, err
	}
	c.wg.Add(1)
	go c.consume()
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// auditTopic is the topic the nodes publish audit records on.
const auditTopic = "audit"

// consume drains the multi-node queue into the audit fileset.
func (c *Cluster) consume() {
	defer c.wg.Done()
	for m := range c.sub.C() {
		var r Record
		if m.LinkLost() || json.Unmarshal(m.Payload, &r) != nil {
			continue
		}
		c.mu.Lock()
		r.Seq = c.next
		c.next++
		c.audit = append(c.audit, r)
		if c.cfg.Retention > 0 && len(c.audit) > c.cfg.Retention {
			drop := len(c.audit) - c.cfg.Retention
			c.audit = c.audit[drop:]
			c.first += uint64(drop)
		}
		c.mu.Unlock()
	}
}

// ReadSince returns up to max audit records with Seq > seq (max <= 0 =
// all). This is the interface the Spectrum DSI tails.
func (c *Cluster) ReadSince(seq uint64, max int) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Record
	for _, r := range c.audit {
		if r.Seq > seq {
			out = append(out, r)
			if max > 0 && len(out) == max {
				break
			}
		}
	}
	return out
}

// AuditLen returns the number of retained audit records.
func (c *Cluster) AuditLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.audit)
}

// MarshalAudit renders the retained fileset as JSONL, as the real audit
// fileset stores it.
func (c *Cluster) MarshalAudit() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []byte
	for _, r := range c.audit {
		line, err := json.Marshal(r)
		if err != nil {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// Close stops the audit pipeline.
func (c *Cluster) Close() {
	c.once.Do(func() {
		c.pub.Close()
		c.sub.Close()
		c.wg.Wait()
	})
}

// Node returns a client bound to protocol node i, whose operations are
// attributed to that node in the audit stream.
func (c *Cluster) Node(i int) (*Node, error) {
	if i < 0 || i >= c.cfg.Nodes {
		return nil, fmt.Errorf("spectrum: no such node %d", i)
	}
	return &Node{c: c, name: fmt.Sprintf("node%d", i)}, nil
}

// Node performs file operations from one protocol node.
type Node struct {
	c    *Cluster
	name string
}

func (n *Node) emit(event, p, oldPath string, info vfs.Info) {
	r := Record{
		Event:     event,
		Path:      p,
		OldPath:   oldPath,
		Inode:     info.Ino,
		IsDir:     info.IsDir,
		NodeName:  n.name,
		FSName:    n.c.cfg.FSName,
		Cluster:   n.c.cfg.Name,
		EventTime: time.Now().UTC().Format(time.RFC3339Nano),
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return
	}
	n.c.pub.Publish(auditTopic, payload)
}

// Mkdir creates a directory.
func (n *Node) Mkdir(p string) error {
	if err := n.c.fs.Mkdir(p); err != nil {
		return err
	}
	info, _ := n.c.fs.Stat(p)
	n.emit(EvCreate, p, "", info)
	return nil
}

// MkdirAll creates p and missing ancestors.
func (n *Node) MkdirAll(p string) error {
	return n.c.fs.MkdirAll(p) // audit omits implicit ancestors, like mmfs does for mkdir -p internals
}

// Create creates a file (CREATE + OPEN audit records, as Spectrum logs
// creation followed by the open handle).
func (n *Node) Create(p string) error {
	h, err := n.c.fs.Create(p)
	if err != nil {
		return err
	}
	info, _ := n.c.fs.Stat(p)
	n.emit(EvCreate, p, "", info)
	n.emit(EvOpen, p, "", info)
	return h.Close()
}

// Write appends bytes (no dedicated audit event; Spectrum audits opens and
// closes, not individual writes — the eventual CLOSE carries the change).
func (n *Node) Write(p string, size int64) error {
	h, err := n.c.fs.Open(p, true)
	if err != nil {
		return err
	}
	info, _ := n.c.fs.Stat(p)
	n.emit(EvOpen, p, "", info)
	if err := h.Write(size); err != nil {
		return err
	}
	if err := h.Close(); err != nil {
		return err
	}
	n.emit(EvClose, p, "", info)
	return nil
}

// CloseFile emits the CLOSE record for a path (used after Create).
func (n *Node) CloseFile(p string) error {
	info, err := n.c.fs.Stat(p)
	if err != nil {
		return err
	}
	n.emit(EvClose, p, "", info)
	return nil
}

// Rename moves a file or directory.
func (n *Node) Rename(oldp, newp string) error {
	if err := n.c.fs.Rename(oldp, newp); err != nil {
		return err
	}
	info, _ := n.c.fs.Stat(newp)
	n.emit(EvRename, newp, oldp, info)
	return nil
}

// Remove deletes a file (UNLINK + DESTROY, as the audit log distinguishes
// the namespace unlink from object destruction) or an empty directory.
func (n *Node) Remove(p string) error {
	info, err := n.c.fs.Stat(p)
	if err != nil {
		return err
	}
	if err := n.c.fs.Remove(p); err != nil {
		return err
	}
	if info.IsDir {
		n.emit(EvRmdir, p, "", info)
		return nil
	}
	n.emit(EvUnlink, p, "", info)
	n.emit(EvDestroy, p, "", info)
	return nil
}

// Chmod updates attributes (GPFSATTR).
func (n *Node) Chmod(p string, mode uint32) error {
	if err := n.c.fs.Chmod(p, mode); err != nil {
		return err
	}
	info, _ := n.c.fs.Stat(p)
	n.emit(EvGPFSAttr, p, "", info)
	return nil
}

// SetXattr updates an extended attribute (XATTRCHANGE).
func (n *Node) SetXattr(p, name, value string) error {
	if err := n.c.fs.SetXattr(p, name, value); err != nil {
		return err
	}
	info, _ := n.c.fs.Stat(p)
	n.emit(EvXattrChange, p, "", info)
	return nil
}

// Stat exposes namespace metadata.
func (n *Node) Stat(p string) (vfs.Info, error) { return n.c.fs.Stat(p) }
