package lustre

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func newTestCluster(mds int) *Cluster {
	return NewCluster(Config{Name: "test", NumMDS: mds, NumOSS: 2, OSTsPerOSS: 2, OSTSizeGB: 1})
}

func TestFIDStringParse(t *testing.T) {
	f := FID{Seq: 0x300005716, Oid: 0x626c, Ver: 0}
	if got := f.String(); got != "[0x300005716:0x626c:0x0]" {
		t.Errorf("String = %q", got)
	}
	for _, s := range []string{"[0x300005716:0x626c:0x0]", "0x300005716:0x626c:0x0", " [0x300005716:0x626c:0x0] "} {
		got, err := ParseFID(s)
		if err != nil {
			t.Fatalf("ParseFID(%q): %v", s, err)
		}
		if got != f {
			t.Errorf("ParseFID(%q) = %v, want %v", s, got, f)
		}
	}
	for _, bad := range []string{"", "[1:2]", "[x:y:z]", "[0x1:0x100000000:0x0]"} {
		if _, err := ParseFID(bad); err == nil {
			t.Errorf("ParseFID(%q) succeeded", bad)
		}
	}
}

func TestFIDQuickRoundTrip(t *testing.T) {
	f := func(seq uint64, oid, ver uint32) bool {
		fid := FID{Seq: seq, Oid: oid, Ver: ver}
		got, err := ParseFID(fid.String())
		return err == nil && got == fid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFIDAllocatorUnique(t *testing.T) {
	a0 := newFIDAllocator(0)
	a1 := newFIDAllocator(1)
	seen := map[FID]bool{}
	for i := 0; i < 1000; i++ {
		for _, a := range []*fidAllocator{a0, a1} {
			f := a.alloc()
			if seen[f] {
				t.Fatalf("duplicate FID %v", f)
			}
			seen[f] = true
		}
	}
}

func TestRecTypeStrings(t *testing.T) {
	cases := map[RecType]string{
		RecCreat: "01CREAT", RecMkdir: "02MKDIR", RecUnlnk: "06UNLNK",
		RecRmdir: "07RMDIR", RecRenme: "08RENME", RecRnmto: "09RNMTO",
		RecMtime: "17MTIME", RecSattr: "14SATTR", RecXattr: "15XATTR",
		RecTrunc: "13TRUNC", RecIoctl: "12IOCTL",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", ty.Name(), got, want)
		}
		parsed, err := ParseRecType(want)
		if err != nil || parsed != ty {
			t.Errorf("ParseRecType(%q) = %v, %v", want, parsed, err)
		}
		parsed, err = ParseRecType(ty.Name())
		if err != nil || parsed != ty {
			t.Errorf("ParseRecType(%q) = %v, %v", ty.Name(), parsed, err)
		}
	}
	if _, err := ParseRecType("BOGUS"); err == nil {
		t.Error("ParseRecType(BOGUS) succeeded")
	}
	if RecType(99).Name() != "TYPE99" {
		t.Error("unknown type name")
	}
}

func TestCreateJournalsRecord(t *testing.T) {
	c := newTestCluster(1)
	cl := c.Client()
	if err := cl.Create("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	log, err := c.Changelog(0)
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Read(0, 0)
	if len(recs) != 1 {
		t.Fatalf("records = %v", recs)
	}
	r := recs[0]
	if r.Type != RecCreat || r.Name != "hello.txt" || r.Index != 1 {
		t.Errorf("record = %+v", r)
	}
	if r.TFid.IsZero() || r.PFid.IsZero() {
		t.Error("missing FIDs")
	}
	// The record renders like a Table I row.
	s := r.String()
	if !strings.Contains(s, "01CREAT") || !strings.Contains(s, "t=[") || !strings.Contains(s, "p=[") || !strings.Contains(s, "hello.txt") {
		t.Errorf("rendered record = %q", s)
	}
}

func TestEvaluateOutputScriptChangelog(t *testing.T) {
	// The §IV-1 script: create hello.txt, modify, rename to hi.txt,
	// mkdir okdir, delete the file.
	c := newTestCluster(1)
	cl := c.Client()
	steps := []func() error{
		func() error { return cl.Create("/hello.txt") },
		func() error { return cl.Write("/hello.txt", 10) },
		func() error { return cl.Rename("/hello.txt", "/hi.txt") },
		func() error { return cl.Mkdir("/okdir") },
		func() error { return cl.Unlink("/hi.txt") },
	}
	for i, s := range steps {
		if err := s(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	log, _ := c.Changelog(0)
	recs := log.Read(0, 0)
	wantTypes := []RecType{RecCreat, RecMtime, RecRenme, RecMkdir, RecUnlnk}
	if len(recs) != len(wantTypes) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantTypes))
	}
	for i, want := range wantTypes {
		if recs[i].Type != want {
			t.Errorf("record %d type = %v, want %v", i, recs[i].Type, want)
		}
		if recs[i].Index != uint64(i+1) {
			t.Errorf("record %d index = %d", i, recs[i].Index)
		}
	}
	// MTIME has no parent FID (Table I).
	if !recs[1].PFid.IsZero() {
		t.Error("MTIME record has a parent FID")
	}
	// RENME carries the renamed file's FID (s=) and source parent (sp=).
	ren := recs[2]
	if ren.SFid.IsZero() || ren.SPFid.IsZero() {
		t.Errorf("RENME record missing s/sp: %+v", ren)
	}
	if ren.Name != "hello.txt" || ren.SName != "hi.txt" {
		t.Errorf("RENME names = %q -> %q", ren.Name, ren.SName)
	}
	// The UNLNK record's target FID equals the SFid of the rename (the
	// file kept its FID across the rename).
	if recs[4].TFid != ren.SFid {
		t.Errorf("UNLNK target %v != renamed FID %v", recs[4].TFid, ren.SFid)
	}
}

func TestFid2Path(t *testing.T) {
	c := newTestCluster(1)
	cl := c.Client()
	if err := cl.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/a/b/f.txt"); err != nil {
		t.Fatal(err)
	}
	info, err := c.Stat("/a/b/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Fid2Path(info.FID)
	if err != nil {
		t.Fatal(err)
	}
	if p != "/a/b/f.txt" {
		t.Errorf("Fid2Path = %q", p)
	}
	// Rename: same FID resolves to the new path.
	if err := cl.Rename("/a/b/f.txt", "/a/g.txt"); err != nil {
		t.Fatal(err)
	}
	p, err = c.Fid2Path(info.FID)
	if err != nil || p != "/a/g.txt" {
		t.Errorf("after rename: %q, %v", p, err)
	}
	// Unlink: FID becomes stale.
	if err := cl.Unlink("/a/g.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fid2Path(info.FID); !errors.Is(err, ErrStaleFID) {
		t.Errorf("stale fid error = %v", err)
	}
	if c.Fid2PathCalls() != 3 {
		t.Errorf("calls = %d", c.Fid2PathCalls())
	}
}

// AppendFid2Path appends after what dst holds, leaves dst as it was for a
// stale FID, and into a buffer with room allocates nothing — the resolver's
// miss path calls it once per parent directory that is not cached.
func TestAppendFid2PathAllocs(t *testing.T) {
	c := newTestCluster(1)
	cl := c.Client()
	if err := cl.MkdirAll("/dir/sub"); err != nil {
		t.Fatal(err)
	}
	root, _ := c.Stat("/")
	sub, err := c.Stat("/dir/sub")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fid  FID
		want string
		err  error
	}{
		{root.FID, "dst:/", nil},
		{sub.FID, "dst:/dir/sub", nil},
		{FID{Seq: 0xdead, Oid: 1}, "dst:", ErrStaleFID},
	} {
		if got, err := c.AppendFid2Path([]byte("dst:"), tc.fid); string(got) != tc.want || err != tc.err {
			t.Errorf("AppendFid2Path(%v) = %q, %v; want %q, %v", tc.fid, got, err, tc.want, tc.err)
		}
	}
	buf := make([]byte, 0, 64)
	if avg := testing.AllocsPerRun(100, func() { buf, _ = c.AppendFid2Path(buf[:0], sub.FID) }); avg != 0 {
		t.Errorf("AppendFid2Path into a buffer with room: %v allocs, want 0", avg)
	}
}

// BenchmarkAppendFid2Path resolves a FID four directories deep into a
// reused buffer; allocs/op must read 0.
func BenchmarkAppendFid2Path(b *testing.B) {
	c := newTestCluster(1)
	if err := c.Client().MkdirAll("/a/bb/ccc/dddd"); err != nil {
		b.Fatal(err)
	}
	info, err := c.Stat("/a/bb/ccc/dddd")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = c.AppendFid2Path(buf[:0], info.FID)
	}
}

func TestDNEDirectoryDistribution(t *testing.T) {
	c := newTestCluster(4)
	cl := c.Client()
	mdtsUsed := map[int]bool{}
	for i := 0; i < 64; i++ {
		p := fmt.Sprintf("/dir%d", i)
		if err := cl.Mkdir(p); err != nil {
			t.Fatal(err)
		}
		info, _ := c.Stat(p)
		mdtsUsed[info.MDT] = true
	}
	if len(mdtsUsed) != 4 {
		t.Errorf("directories landed on %d MDTs, want 4", len(mdtsUsed))
	}
	// Files journal on their parent directory's MDT.
	if err := cl.Create("/dir0/f"); err != nil {
		t.Fatal(err)
	}
	dinfo, _ := c.Stat("/dir0")
	log, _ := c.Changelog(dinfo.MDT)
	recs := log.Read(0, 0)
	found := false
	for _, r := range recs {
		if r.Type == RecCreat && r.Name == "f" {
			found = true
		}
	}
	if !found {
		t.Error("file create not journalled on parent's MDT")
	}
}

func TestCrossMDTRenameEmitsRnmto(t *testing.T) {
	c := newTestCluster(4)
	cl := c.Client()
	// Find two directories on different MDTs.
	var d1, d2 string
	for i := 0; i < 64 && (d1 == "" || d2 == ""); i++ {
		p := fmt.Sprintf("/d%d", i)
		if err := cl.Mkdir(p); err != nil {
			t.Fatal(err)
		}
		info, _ := c.Stat(p)
		if d1 == "" {
			d1 = p
			continue
		}
		i1, _ := c.Stat(d1)
		if info.MDT != i1.MDT {
			d2 = p
		}
	}
	if d2 == "" {
		t.Fatal("could not find two MDTs")
	}
	if err := cl.Create(d1 + "/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rename(d1+"/f", d2+"/f"); err != nil {
		t.Fatal(err)
	}
	i1, _ := c.Stat(d1)
	i2, _ := c.Stat(d2)
	log1, _ := c.Changelog(i1.MDT)
	log2, _ := c.Changelog(i2.MDT)
	var sawRenme, sawRnmto bool
	for _, r := range log1.Read(0, 0) {
		if r.Type == RecRenme {
			sawRenme = true
		}
	}
	for _, r := range log2.Read(0, 0) {
		if r.Type == RecRnmto {
			sawRnmto = true
		}
	}
	if !sawRenme || !sawRnmto {
		t.Errorf("cross-MDT rename: RENME=%v RNMTO=%v", sawRenme, sawRnmto)
	}
}

func TestChangelogReadClear(t *testing.T) {
	c := newTestCluster(1)
	cl := c.Client()
	for i := 0; i < 10; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	log, _ := c.Changelog(0)
	id := log.Register()
	recs := log.Read(0, 4)
	if len(recs) != 4 || recs[0].Index != 1 {
		t.Fatalf("Read = %v", recs)
	}
	recs = log.Read(4, 0)
	if len(recs) != 6 || recs[0].Index != 5 {
		t.Fatalf("Read(4) = %d records starting %d", len(recs), recs[0].Index)
	}
	if err := log.Clear(id, 4); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 6 {
		t.Errorf("Len after clear = %d", log.Len())
	}
	// Reads below the cleared point return nothing extra.
	recs = log.Read(0, 0)
	if len(recs) != 6 || recs[0].Index != 5 {
		t.Errorf("Read after clear = %v", recs)
	}
	st := log.Stats()
	if st.Appended != 10 || st.Cleared != 4 || st.Retained != 6 {
		t.Errorf("stats = %+v", st)
	}
}

func TestChangelogMultiReaderRetention(t *testing.T) {
	c := newTestCluster(1)
	cl := c.Client()
	log, _ := c.Changelog(0)
	r1 := log.Register()
	r2 := log.Register()
	for i := 0; i < 5; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Clear(r1, 5); err != nil {
		t.Fatal(err)
	}
	// r2 has not consumed anything: records retained.
	if log.Len() != 5 {
		t.Errorf("Len = %d, want 5 (r2 holds retention)", log.Len())
	}
	if err := log.Clear(r2, 3); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2 {
		t.Errorf("Len = %d, want 2", log.Len())
	}
	if err := log.Deregister(r2); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 {
		t.Errorf("Len = %d after deregister, want 0", log.Len())
	}
	if err := log.Clear("cl99", 1); err == nil {
		t.Error("Clear with unknown reader succeeded")
	}
	if err := log.Deregister("cl99"); err == nil {
		t.Error("Deregister unknown reader succeeded")
	}
}

func TestOSTAccounting(t *testing.T) {
	c := NewCluster(Config{NumOSS: 2, OSTsPerOSS: 2, OSTSizeGB: 1, StripeCnt: 2, StripeSize: 1 << 10})
	cl := c.Client()
	if err := cl.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write("/f", 10<<10); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalUsed(); got != 10<<10 {
		t.Errorf("TotalUsed = %d", got)
	}
	// Striping spread objects across OSTs.
	var objects int64
	for _, oss := range c.OSSes() {
		for _, st := range oss.Stats() {
			objects += st.Objects
		}
	}
	if objects != 2 {
		t.Errorf("objects = %d, want 2 (stripe count)", objects)
	}
	if err := cl.Truncate("/f", 4<<10); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalUsed(); got != 4<<10 {
		t.Errorf("TotalUsed after truncate = %d", got)
	}
	if err := cl.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalUsed(); got != 0 {
		t.Errorf("TotalUsed after unlink = %d", got)
	}
	if c.TotalCapacity() != 4<<30 {
		t.Errorf("capacity = %d", c.TotalCapacity())
	}
}

func TestOSTFull(t *testing.T) {
	c := NewCluster(Config{NumOSS: 1, OSTsPerOSS: 1, OSTSizeGB: 1, StripeCnt: 1})
	cl := c.Client()
	if err := cl.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write("/f", 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write("/f", 1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("overfull write = %v", err)
	}
}

func TestClientErrors(t *testing.T) {
	c := newTestCluster(1)
	cl := c.Client()
	if err := cl.Create("relative"); !errors.Is(err, ErrBadPath) {
		t.Error(err)
	}
	if err := cl.Create("/missing/f"); !errors.Is(err, ErrNotExist) {
		t.Error(err)
	}
	if err := cl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/d"); !errors.Is(err, ErrExist) {
		t.Error(err)
	}
	if err := cl.Write("/d", 1); !errors.Is(err, ErrIsDir) {
		t.Error(err)
	}
	if err := cl.Unlink("/d"); !errors.Is(err, ErrIsDir) {
		t.Error(err)
	}
	if err := cl.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rmdir("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Error(err)
	}
	if err := cl.Rmdir("/d/f"); !errors.Is(err, ErrNotDir) {
		t.Error(err)
	}
	if err := cl.Rename("/d", "/d/sub"); !errors.Is(err, ErrBadPath) {
		t.Error(err)
	}
	if err := cl.Unlink("/nope"); !errors.Is(err, ErrNotExist) {
		t.Error(err)
	}
	if _, err := c.Changelog(9); !errors.Is(err, ErrNoSuchMDT) {
		t.Error(err)
	}
}

func TestLinkAndSymlink(t *testing.T) {
	c := newTestCluster(1)
	cl := c.Client()
	if err := cl.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Link("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	ia, _ := c.Stat("/a")
	ib, _ := c.Stat("/b")
	if ia.FID != ib.FID {
		t.Error("hard link FIDs differ")
	}
	if err := cl.Symlink("/a", "/s"); err != nil {
		t.Fatal(err)
	}
	log, _ := c.Changelog(0)
	recs := log.Read(0, 0)
	types := map[RecType]int{}
	for _, r := range recs {
		types[r.Type]++
	}
	if types[RecHlink] != 1 || types[RecSlink] != 1 {
		t.Errorf("types = %v", types)
	}
	// Unlinking one hard-link name keeps the FID live.
	if err := cl.Unlink("/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fid2Path(ia.FID); err != nil {
		t.Errorf("FID stale after removing one link: %v", err)
	}
	if err := cl.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fid2Path(ia.FID); err == nil {
		t.Error("FID live after last unlink")
	}
}

func TestAttrOps(t *testing.T) {
	c := newTestCluster(1)
	cl := c.Client()
	if err := cl.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Setattr("/f", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := cl.Setxattr("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ioctl("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.CloseFile("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mknod("/dev0"); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Stat("/f")
	if info.Mode != 0o600 {
		t.Errorf("mode = %o", info.Mode)
	}
	log, _ := c.Changelog(0)
	var types []RecType
	for _, r := range log.Read(0, 0) {
		types = append(types, r.Type)
	}
	want := []RecType{RecCreat, RecSattr, RecXattr, RecIoctl, RecClose, RecMknod}
	if len(types) != len(want) {
		t.Fatalf("types = %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("type %d = %v, want %v", i, types[i], want[i])
		}
	}
}

func TestRemoveAll(t *testing.T) {
	c := newTestCluster(2)
	cl := c.Client()
	if err := cl.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cl.Create(fmt.Sprintf("/a/b/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	if c.Exists("/a") {
		t.Error("tree still present")
	}
	files, dirs := c.Counts()
	if files != 0 || dirs != 0 {
		t.Errorf("counts = %d, %d", files, dirs)
	}
	if err := cl.RemoveAll("/a"); err != nil {
		t.Errorf("idempotent RemoveAll: %v", err)
	}
}

func TestRenameReplacesVictim(t *testing.T) {
	c := newTestCluster(1)
	cl := c.Client()
	if err := cl.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/b"); err != nil {
		t.Fatal(err)
	}
	ib, _ := c.Stat("/b")
	if err := cl.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	files, _ := c.Counts()
	if files != 1 {
		t.Errorf("files = %d", files)
	}
	// The victim FID is stale and recorded as the RENME target.
	if _, err := c.Fid2Path(ib.FID); err == nil {
		t.Error("victim FID still resolves")
	}
	log, _ := c.Changelog(0)
	recs := log.Read(0, 0)
	last := recs[len(recs)-1]
	if last.Type != RecRenme || last.TFid != ib.FID {
		t.Errorf("RENME record = %+v", last)
	}
}

// Property: namespace counts stay consistent with a model under random
// create/mkdir/rename/remove sequences.
func TestNamespaceModelQuick(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCluster(2)
		cl := c.Client()
		names := []string{"/a", "/b", "/c", "/d"}
		model := map[string]bool{}
		for i := 0; i < int(steps); i++ {
			p := names[rng.Intn(len(names))]
			switch rng.Intn(3) {
			case 0:
				if err := cl.Create(p); err == nil {
					if model[p] {
						return false
					}
					model[p] = true
				}
			case 1:
				q := names[rng.Intn(len(names))]
				if err := cl.Rename(p, q); err == nil {
					if !model[p] {
						return false
					}
					delete(model, p)
					model[q] = true
				}
			case 2:
				if err := cl.Unlink(p); err == nil {
					if !model[p] {
						return false
					}
					delete(model, p)
				}
			}
		}
		files, _ := c.Counts()
		if int(files) != len(model) {
			return false
		}
		for p := range model {
			if !c.Exists(p) {
				return false
			}
			info, err := c.Stat(p)
			if err != nil {
				return false
			}
			if got, err := c.Fid2Path(info.FID); err != nil || got != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: changelog indices are strictly increasing and contiguous per
// MDT regardless of operation mix.
func TestChangelogMonotonicQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		c := newTestCluster(3)
		cl := c.Client()
		for i, op := range ops {
			p := fmt.Sprintf("/f%d", i)
			switch op % 3 {
			case 0:
				_ = cl.Create(p)
			case 1:
				_ = cl.Mkdir(p)
			case 2:
				_ = cl.Create(p)
				_ = cl.Unlink(p)
			}
		}
		for i := 0; i < c.NumMDS(); i++ {
			log, _ := c.Changelog(i)
			recs := log.Read(0, 0)
			for j, r := range recs {
				if r.Index != uint64(j+1) || r.MDT != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTestbedPresets(t *testing.T) {
	beds := Testbeds()
	if len(beds) != 3 {
		t.Fatalf("testbeds = %d", len(beds))
	}
	names := []string{"AWS", "Thor", "Iota"}
	for i, cfg := range beds {
		if cfg.Name != names[i] {
			t.Errorf("testbed %d = %q", i, cfg.Name)
		}
		c := NewCluster(cfg)
		if c.Config().Fid2PathCost <= 0 {
			t.Errorf("%s: no fid2path cost", cfg.Name)
		}
		if len(cfg.OpLatency) == 0 {
			t.Errorf("%s: no op latencies", cfg.Name)
		}
		if ScriptWorkers(cfg.Name) <= 0 {
			t.Errorf("%s: no script workers", cfg.Name)
		}
	}
	// Iota has 4 MDSs (DNE); the others one.
	if NewCluster(beds[2]).NumMDS() != 4 {
		t.Error("Iota should have 4 MDSs")
	}
	// Iota models the 897 TB store.
	if got := NewCluster(beds[2]).TotalCapacity(); got < 800<<40 {
		t.Errorf("Iota capacity = %d", got)
	}
	// Ordering of op speed: AWS slowest, Iota fastest.
	if !(beds[0].OpLatency[RecCreat] > beds[1].OpLatency[RecCreat] && beds[1].OpLatency[RecCreat] > beds[2].OpLatency[RecCreat]) {
		t.Error("create latencies not ordered AWS > Thor > Iota")
	}
}

func TestPacedClientRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{NumMDS: 1, OpLatency: opLatencies(2000, 2000, 2000)}
	c := NewCluster(cfg)
	cl := c.PacedClient()
	// 100 creates at 2ms each should take ~200ms of virtual time.
	start := nowMono()
	for i := 0; i < 100; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := nowMono() - start
	if elapsed < 180e6 || elapsed > 400e6 { // 180–400ms in ns
		t.Errorf("paced 100 ops took %dms, want ~200ms", elapsed/1e6)
	}
}
