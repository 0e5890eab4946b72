package main

// Microprobes: single-goroutine timed loops over each layer's public
// functions with fixed inputs. They say what a layer costs on its own, where
// the workloads say what the layers cost together. A probe that cannot set
// itself up (no loopback socket, say) reports 0 and says why on standard
// error; it does not fail the run.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"arkfs/internal/cache"
	"arkfs/internal/core"
	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/metatable"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/qos"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

func probeMetrics() []metricDecl {
	return concat(
		lower("ns", "core.stat_ns"), lower("1/op", "core.stat_allocs"),
		lower("ns", "core.create_ns"), lower("1/op", "core.create_allocs"),
		lower("ns", "core.remote_stat_ns"), lower("1/op", "core.remote_stat_allocs"),
		lower("ns", "wire.encode_txn_ns", "wire.decode_txn_ns"), lower("1/op", "wire.encode_txn_allocs"),
		lower("ns", "wire.encode_inode_ns", "wire.decode_inode_ns"),
		lower("us", "wire.encode_dentries_us_1k", "wire.decode_dentries_us_1k"),
		higher("MiB/s", "wire.seal_mibps", "wire.unseal_mibps"),
		lower("ns", "rpc.call_ns"), lower("1/op", "rpc.call_allocs"), lower("us", "rpc.tcp_call_us"),
		lower("ns", "metatable.insert_ns", "metatable.lookup_ns", "metatable.remove_ns"),
		lower("us", "metatable.list_us_10k"),
		lower("ms", "metatable.load_ms_10k", "metatable.flushto_ms_10k"),
		lower("bytes", "metatable.bytes_per_entry"),
		lower("ns", "journal.log_ns"), lower("1/op", "journal.log_allocs"), lower("us", "journal.barrier_us"),
		lower("ms", "journal.ckpt_add_ms_10k", "journal.ckpt_del_ms_10k"), lower("us", "journal.ckpt_one_us_10k"),
		lower("ms", "journal.recover_ms_1k"),
		higher("MiB/s", "cache.write_mibps", "cache.read_hit_mibps", "cache.read_miss_mibps", "cache.flush_mibps"),
		lower("us", "cache.smallfile_us"), lower("bytes", "cache.smallfile_alloc_bytes"),
		higher("MiB/s", "prt.put_chunk_mibps", "prt.get_chunk_mibps"),
		lower("ns", "prt.save_inode_ns", "prt.load_inode_ns"),
		lower("ms", "prt.save_dentries_ms_10k", "prt.load_dentries_ms_10k"),
		lower("ns", "objstore.mem_put_ns_4k", "objstore.mem_get_ns_4k"),
		lower("us", "objstore.http_put_us_4k", "objstore.http_get_us_4k"),
		lower("us", "lease.acquire_us", "lease.reacquire_us"), lower("ms", "lease.takeover_ms_1k"),
		higher("1/s", "sim.virt_events_per_s"), lower("ns", "sim.virt_chan_rt_ns", "sim.real_chan_rt_ns"),
		lower("s", "sim.wall_per_virt_s"),
		lower("ns", "obs.counter_inc_ns", "obs.histogram_observe_ns", "obs.span_ns"), lower("%", "obs.stat_overhead_pct"),
		lower("ns", "qos.admit_ns"),
	)
}

// cost is what one call of a probed function took.
type cost struct{ ns, allocs, bytes float64 }

// measure calls fn(i) for i in [0,n) on this goroutine and returns the mean
// cost of a call. Allocation counts are the process's, so a probe whose
// target has background workers sees theirs too.
func (p *probeSet) measure(n int, fn func(i int)) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	f := float64(n)
	return cost{ns: float64(el) / f, allocs: float64(m1.Mallocs-m0.Mallocs) / f, bytes: float64(m1.TotalAlloc-m0.TotalAlloc) / f}
}

// best is the fastest of k measurements: the one least disturbed. What it is
// handed can be repeated, so a quick set measures once and a sixteenth of the
// calls.
func (p *probeSet) best(k, n int, fn func(i int)) cost {
	if p.quick {
		k, n = 1, max(1, n/16)
	}
	c := p.measure(n, fn)
	for j := 1; j < k; j++ {
		if d := p.measure(n, fn); d.ns < c.ns {
			c = d
		}
	}
	return c
}

// keepErr returns a func that stores the errors it is handed in *err (the last
// one wins), for probe loops whose bodies cannot return.
func keepErr(err *error) func(error) {
	return func(e error) {
		if e != nil {
			*err = e
		}
	}
}

func mibps(bytes int, ns float64) float64 { return float64(bytes) / (1 << 20) / (ns / 1e9) }

type probeSet struct {
	m map[string]metricValue
	// quick shrinks the 10k-entry directories of the metatable and journal
	// probes to 1k and the repeatable loops (best) to a sixteenth, measured
	// once: the tier-1 test wants to know that each probe runs, not what it
	// measures.
	quick bool
}

// dirSize is the entry count of the big-directory probes.
func (p *probeSet) dirSize() int {
	if p.quick {
		return 1000
	}
	return 10000
}

func (p *probeSet) set(name string, v float64) { p.m[name] = metricValue{Value: v} }

// step runs one layer's probes; an error leaves that layer's values at 0.
func (p *probeSet) step(layer string, fn func() error) {
	if err := fn(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s probes: %v\n", layer, err)
	}
}

func runProbes(quick bool) map[string]metricValue {
	p := &probeSet{m: map[string]metricValue{}, quick: quick}
	p.step("wire", p.wire)
	p.step("objstore", p.objstore)
	p.step("prt", p.prt)
	p.step("metatable", p.metatable)
	p.step("journal", p.journal)
	p.step("cache", p.cache)
	p.step("rpc", p.rpc)
	p.step("lease", p.lease)
	p.step("core", p.core)
	p.step("sim", p.sim)
	p.step("obs", p.obs)
	p.step("qos", p.qos)
	for _, d := range probeMetrics() {
		p.m[d.Name] = metricValue{Value: p.m[d.Name].Value, Unit: d.Unit}
	}
	return p.m
}

// probeNames are file names as the workloads make them.
func probeNames(n int) []string {
	s := make([]string, n)
	for i := range s {
		s[i] = fmt.Sprintf("f%07d", i)
	}
	return s
}

func probeInode(src *types.InoSource) *types.Inode {
	return &types.Inode{Ino: src.Next(), Type: types.TypeRegular, Mode: 0o644, Uid: 1000, Gid: 1000, Nlink: 1}
}

// createOps are the journal ops of creating names, as core logs them.
func createOps(src *types.InoSource, names []string) []wire.Op {
	ops := make([]wire.Op, 0, 2*len(names))
	for _, n := range names {
		ino := probeInode(src)
		ops = append(ops, wire.Op{Kind: wire.OpSetInode, Inode: ino},
			wire.Op{Kind: wire.OpAddDentry, Ino: ino.Ino, Name: n, FType: types.TypeRegular})
	}
	return ops
}

func deleteOps(creates []wire.Op) []wire.Op {
	ops := make([]wire.Op, 0, len(creates))
	for i := 0; i+1 < len(creates); i += 2 {
		ops = append(ops, wire.Op{Kind: wire.OpDelDentry, Name: creates[i+1].Name, FType: types.TypeRegular},
			wire.Op{Kind: wire.OpDelInode, Ino: creates[i].Inode.Ino, FType: types.TypeRegular})
	}
	return ops
}

func (p *probeSet) wire() error {
	src := types.NewInoSource(1)
	names := probeNames(1000)
	txn := &wire.Txn{ID: 1, Dir: src.Next(), Kind: wire.TxnNormal, Ops: createOps(src, names[:32])}
	var frame []byte
	c := p.best(3, 2000, func(int) { frame = wire.EncodeTxn(txn) })
	p.set("wire.encode_txn_ns", c.ns)
	p.set("wire.encode_txn_allocs", c.allocs)
	var err error
	p.set("wire.decode_txn_ns", p.best(3, 2000, func(int) { _, err = wire.DecodeTxn(frame) }).ns)
	if err != nil {
		return err
	}
	ino := probeInode(src)
	p.set("wire.encode_inode_ns", p.best(3, 20000, func(int) { frame = wire.EncodeInode(ino) }).ns)
	p.set("wire.decode_inode_ns", p.best(3, 20000, func(int) { _, err = wire.DecodeInode(frame) }).ns)
	if err != nil {
		return err
	}
	ents := make([]wire.Dentry, len(names))
	for i, n := range names {
		ents[i] = wire.Dentry{Name: n, Ino: src.Next(), Type: types.TypeRegular}
	}
	p.set("wire.encode_dentries_us_1k", p.best(3, 200, func(int) { frame = wire.EncodeDentries(ents) }).ns/1e3)
	p.set("wire.decode_dentries_us_1k", p.best(3, 200, func(int) { _, err = wire.DecodeDentries(frame) }).ns/1e3)
	if err != nil {
		return err
	}
	chunk := make([]byte, chunkSize)
	for i := range chunk {
		chunk[i] = byte(i * 7)
	}
	p.set("wire.seal_mibps", mibps(chunkSize, p.best(3, 16, func(int) { frame = wire.Seal(chunk) }).ns))
	p.set("wire.unseal_mibps", mibps(chunkSize, p.best(3, 16, func(int) { _, err = wire.Unseal(frame) }).ns))
	return err
}

func (p *probeSet) objstore() error {
	mem := objstore.NewMemStore()
	val := make([]byte, 4096)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("i:%032x", i)
	}
	var err error
	put := func(s objstore.Store) func(int) {
		return func(i int) {
			if e := s.Put(keys[i%len(keys)], val); e != nil {
				err = e
			}
		}
	}
	get := func(s objstore.Store) func(int) {
		return func(i int) {
			if _, e := s.Get(keys[i%len(keys)]); e != nil {
				err = e
			}
		}
	}
	p.set("objstore.mem_put_ns_4k", p.best(3, 20000, put(mem)).ns)
	p.set("objstore.mem_get_ns_4k", p.best(3, 20000, get(mem)).ns)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("http gateway: %w", err)
	}
	srv := &http.Server{Handler: objstore.NewGateway(mem)}
	done := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(done) }()
	defer func() { _ = srv.Close(); <-done }()
	hs := objstore.NewHTTPStore("http://" + ln.Addr().String())
	p.set("objstore.http_put_us_4k", p.best(2, 300, put(hs)).ns/1e3)
	p.set("objstore.http_get_us_4k", p.best(2, 300, get(hs)).ns/1e3)
	return err
}

func (p *probeSet) prt() error {
	tr := prt.New(objstore.NewMemStore(), chunkSize)
	src := types.NewInoSource(2)
	chunk := make([]byte, chunkSize)
	ino := src.Next()
	var err error
	note := keepErr(&err)
	p.set("prt.put_chunk_mibps", mibps(chunkSize, p.best(3, 16, func(i int) { note(tr.PutChunk(ino, int64(i), chunk)) }).ns))
	p.set("prt.get_chunk_mibps", mibps(chunkSize, p.best(3, 16, func(i int) { _, e := tr.GetChunk(ino, int64(i)); note(e) }).ns))
	inodes := make([]*types.Inode, 1024)
	for i := range inodes {
		inodes[i] = probeInode(src)
	}
	p.set("prt.save_inode_ns", p.best(3, 10000, func(i int) { note(tr.SaveInode(inodes[i%len(inodes)])) }).ns)
	p.set("prt.load_inode_ns", p.best(3, 10000, func(i int) { _, e := tr.LoadInode(inodes[i%len(inodes)].Ino); note(e) }).ns)
	ents := make([]wire.Dentry, 10000)
	for i, n := range probeNames(len(ents)) {
		ents[i] = wire.Dentry{Name: n, Ino: src.Next(), Type: types.TypeRegular}
	}
	dir := src.Next()
	p.set("prt.save_dentries_ms_10k", p.best(3, 5, func(int) { note(tr.SaveDentries(dir, ents)) }).ns/1e6)
	p.set("prt.load_dentries_ms_10k", p.best(3, 5, func(int) { _, e := tr.LoadDentries(dir); note(e) }).ns/1e6)
	return err
}

func (p *probeSet) metatable() error {
	n := p.dirSize()
	tr := prt.New(objstore.NewMemStore(), chunkSize)
	src := types.NewInoSource(3)
	names := probeNames(n)
	inodes := make([]*types.Inode, n)
	for i := range inodes {
		inodes[i] = probeInode(src)
	}
	dirIno := &types.Inode{Ino: src.Next(), Type: types.TypeDir, Mode: 0o777, Nlink: 2}
	var err error
	note := keepErr(&err)
	heap0 := liveHeap(0)
	t := metatable.NewEmpty(dirIno)
	p.set("metatable.insert_ns", p.measure(n, func(i int) { note(t.Insert(names[i], inodes[i])) }).ns)
	p.set("metatable.bytes_per_entry", (liveHeap(0)-heap0)*(1<<20)/float64(n))
	p.set("metatable.lookup_ns", p.best(3, n, func(i int) { _, _, e := t.Lookup(names[i]); note(e) }).ns)
	p.set("metatable.list_us_10k", p.best(3, 5, func(int) { _ = t.List() }).ns/1e3)
	p.set("metatable.flushto_ms_10k", p.best(2, 2, func(int) { note(t.FlushTo(tr)) }).ns/1e6)
	p.set("metatable.load_ms_10k", p.best(2, 2, func(int) { _, e := metatable.Load(tr, dirIno.Ino); note(e) }).ns/1e6)
	p.set("metatable.remove_ns", p.measure(n, func(i int) { _, e := t.Remove(names[i]); note(e) }).ns)
	runtime.KeepAlive(t)
	return err
}

func (p *probeSet) journal() error {
	n := p.dirSize()
	env := sim.NewRealEnv()
	defer env.Shutdown()
	store := objstore.NewMemStore()
	tr := prt.New(store, chunkSize)
	src := types.NewInoSource(4)
	names := probeNames(max(n, 8192) + 1)
	var err error
	note := keepErr(&err)
	newDir := func() (types.Ino, error) {
		d := &types.Inode{Ino: src.Next(), Type: types.TypeDir, Mode: 0o777, Nlink: 2}
		return d.Ino, tr.SaveInode(d)
	}

	// Log and Barrier, as core uses them: two ops per create, a barrier after
	// every 64 creates.
	j := journal.New(env, tr, journal.DefaultConfig())
	dir, derr := newDir()
	if derr != nil {
		return derr
	}
	ops := createOps(src, names[:4096])
	c := p.measure(4096, func(i int) { j.Log(bg, dir, ops[2*i:2*i+2]) })
	p.set("journal.log_ns", c.ns)
	p.set("journal.log_allocs", c.allocs)
	note(j.Barrier(dir))
	more := createOps(src, names[4096:8192])
	var barrier time.Duration
	for i := 0; i < 4096; i += 64 {
		for k := i; k < i+64; k++ {
			j.Log(bg, dir, more[2*k:2*k+2])
		}
		t0 := time.Now()
		note(j.Barrier(dir))
		barrier += time.Since(t0)
	}
	p.set("journal.barrier_us", float64(barrier)/64/1e3)
	note(j.FlushAll())
	j.Close()
	if err != nil {
		return err
	}

	// Checkpoint application: add 10k names to an empty directory, add one
	// more, delete the 10k.
	if dir, derr = newDir(); derr != nil {
		return derr
	}
	adds := createOps(src, names[:n])
	one := createOps(src, names[n:n+1])
	p.set("journal.ckpt_add_ms_10k", p.measure(1, func(int) { note(journal.ApplyOps(tr, dir, adds)) }).ns/1e6)
	p.set("journal.ckpt_one_us_10k", p.measure(1, func(int) { note(journal.ApplyOps(tr, dir, one)) }).ns/1e3)
	p.set("journal.ckpt_del_ms_10k", p.measure(1, func(int) { note(journal.ApplyOps(tr, dir, deleteOps(adds))) }).ns/1e6)
	if ents, e := tr.LoadDentries(dir); e != nil || len(ents) != 1 {
		return fmt.Errorf("checkpoint probe left %d entries (err %v), want 1", len(ents), e)
	}

	// Recovery: 16 committed records of 64 creates, none checkpointed.
	if dir, derr = newDir(); derr != nil {
		return derr
	}
	recs := createOps(src, names[:1024])
	for s := 0; s < 16; s++ {
		txn := &wire.Txn{ID: uint64(s + 1), Dir: dir, Kind: wire.TxnNormal, Ops: recs[128*s : 128*(s+1)]}
		note(store.Put(prt.JournalKey(dir, uint64(s+1)), wire.EncodeTxn(txn)))
	}
	var rep journal.Report
	p.set("journal.recover_ms_1k", p.measure(1, func(int) { var e error; rep, e = journal.Recover(tr, dir); note(e) }).ns/1e6)
	if ents, e := tr.LoadDentries(dir); err == nil && (e != nil || len(ents) != 1024) {
		return fmt.Errorf("recovery probe replayed %d entries (err %v, report %+v), want 1024", len(ents), e, rep)
	}
	return err
}

func (p *probeSet) cache() error {
	span, files := int64(64<<20), 200
	if p.quick {
		span, files = 8<<20, 16
	}
	env := sim.NewRealEnv()
	defer env.Shutdown()
	tr := prt.New(objstore.NewMemStore(), chunkSize)
	src := types.NewInoSource(5)
	cfg := cache.Config{EntrySize: chunkSize, MaxEntries: 64, MaxReadahead: 8 << 20}
	var err error
	note := keepErr(&err)
	req := make([]byte, fioReq)
	ino := src.Next()
	c := cache.New(env, tr, cfg)
	w := p.measure(int(span/fioReq), func(i int) { note(c.Write(ino, req, int64(i)*fioReq)) })
	p.set("cache.write_mibps", mibps(fioReq, w.ns))
	p.set("cache.read_hit_mibps", mibps(fioReq, p.best(3, int(span/fioReq), func(i int) { _, e := c.Read(ino, req, int64(i)*fioReq, span); note(e) }).ns))
	p.set("cache.flush_mibps", mibps(int(span), p.measure(1, func(int) { note(c.Flush(ino)) }).ns))
	cold := cache.New(env, tr, cfg)
	p.set("cache.read_miss_mibps", mibps(fioReq, p.measure(int(span/fioReq), func(i int) { _, e := cold.Read(ino, req, int64(i)*fioReq, span); note(e) }).ns))
	// One mdtest-hard sized file: write it, flush it, drop it.
	small := make([]byte, hardFileSize)
	inos := make([]types.Ino, files)
	for i := range inos {
		inos[i] = src.Next()
	}
	s := p.measure(len(inos), func(i int) {
		note(c.Write(inos[i], small, 0))
		note(c.Flush(inos[i]))
		c.Invalidate(inos[i])
	})
	p.set("cache.smallfile_us", s.ns/1e3)
	p.set("cache.smallfile_alloc_bytes", s.bytes)
	return err
}

func (p *probeSet) rpc() error {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	nw := rpc.NewNetwork(env, sim.NetModel{})
	srv := nw.Listen("echo", 4, func(req any) any { return core.StatResp{} })
	defer srv.Close()
	var err error
	call := func(to rpc.Addr) func(int) {
		req := core.StatReq{Name: "f0000001", Cred: benchCred}
		return func(int) {
			if _, e := nw.Call(to, req); e != nil {
				err = e
			}
		}
	}
	c := p.best(3, 20000, call("echo"))
	p.set("rpc.call_ns", c.ns)
	p.set("rpc.call_allocs", c.allocs)
	if err != nil {
		return err
	}
	br, err := nw.Bridge("127.0.0.1:0", "echo")
	if err != nil {
		return err
	}
	defer br.Close()
	p.set("rpc.tcp_call_us", p.best(2, 1000, call(rpc.TCPAddr(br.Addr()))).ns/1e3)
	return err
}

func (p *probeSet) lease() error {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	nw := rpc.NewNetwork(env, sim.NetModel{})
	mgr := lease.NewManager(nw, lease.Options{})
	defer mgr.Close()
	lc := &lease.Client{Net: nw, Mgr: mgr.Addr(), Self: "probe"}
	src := types.NewInoSource(6)
	dirs := make([]types.Ino, 2000)
	for i := range dirs {
		dirs[i] = src.Next()
	}
	var err error
	pair := func(dir func(i int) types.Ino) func(int) {
		return func(i int) {
			resp, e := lc.Acquire(bg, dir(i))
			if e == nil && !resp.Granted {
				e = fmt.Errorf("lease probe: acquire not granted: %+v", resp)
			}
			if e == nil {
				e = lc.Release(bg, dir(i), resp.LeaseID, true)
			}
			if e != nil {
				err = e
			}
		}
	}
	p.set("lease.acquire_us", p.measure(len(dirs), pair(func(i int) types.Ino { return dirs[i] })).ns/1e3)
	p.set("lease.reacquire_us", p.best(3, 2000, pair(func(int) types.Ino { return dirs[0] })).ns/1e3)
	if err != nil {
		return err
	}
	// Takeover: B's first stat in a 1000-entry directory that A released
	// cleanly costs a lease acquire plus loading the directory.
	var took []float64
	for k := 0; k < 5; k++ {
		d, derr := deployWall(nil)
		if derr != nil {
			return derr
		}
		a, _ := d.mount("a", cache.Config{})
		if err = mustMkdir(a, "/t"); err == nil {
			var t tally
			for _, n := range probeNames(1000) {
				createEmpty(a, "/t/"+n, &t)
			}
			if cerr := a.Close(); cerr != nil || t.failed > 0 {
				err = fmt.Errorf("lease takeover probe: %d failed creates, close: %v", t.failed, cerr)
			}
		}
		if err == nil {
			b, _ := d.mount("b", cache.Config{})
			t0 := time.Now()
			_, err = b.Stat(bg, "/t/f0000500")
			took = append(took, float64(time.Since(t0))/1e6)
			_ = b.Close()
		}
		d.close()
		if err != nil {
			return err
		}
	}
	p.set("lease.takeover_ms_1k", median(took))
	return nil
}

func (p *probeSet) core() error {
	stat := func(traced bool) (local, remote cost, create cost, err error) {
		var rec *recorder
		if traced {
			rec = newRecorder() // attaches an obs registry; the raw clients below bypass the seams
		}
		d, err := deployWall(rec)
		if err != nil {
			return
		}
		defer d.close()
		_, a := d.mount("a", cache.Config{})
		_, b := d.mount("b", cache.Config{})
		defer a.Close()
		defer b.Close()
		if err = a.Mkdir(bg, "/p", 0o777); err != nil {
			return
		}
		warm, n := 2000, 10000
		if p.quick {
			warm, n = 200, 1000
		}
		names := probeNames(warm + n)
		for i := range names {
			names[i] = "/p/" + names[i]
		}
		note := keepErr(&err)
		mk := func(i int) {
			f, e := a.Open(bg, names[i], types.OWronly|types.OCreate|types.OExcl, 0o644)
			if e == nil {
				e = f.Close()
			}
			note(e)
		}
		p.measure(warm, mk) // warm: the directory is led, the table has entries
		create = p.measure(n, func(i int) { mk(warm + i) })
		local = p.best(3, n, func(i int) { _, e := a.Stat(bg, names[i]); note(e) })
		remote = p.best(3, n/2, func(i int) { _, e := b.Stat(bg, names[i]); note(e) })
		return
	}
	local, remote, create, err := stat(false)
	if err != nil {
		return err
	}
	p.set("core.stat_ns", local.ns)
	p.set("core.stat_allocs", local.allocs)
	p.set("core.create_ns", create.ns)
	p.set("core.create_allocs", create.allocs)
	p.set("core.remote_stat_ns", remote.ns)
	p.set("core.remote_stat_allocs", remote.allocs)
	withObs, _, _, err := stat(true)
	if err != nil {
		return err
	}
	p.set("obs.stat_overhead_pct", (withObs.ns/local.ns-1)*100)
	return nil
}

func (p *probeSet) sim() error {
	pingPong := func(env sim.Env, n int) {
		ping, pong := sim.NewChan[int](env), sim.NewChan[int](env)
		env.Go(func() {
			for {
				v, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(v)
			}
		})
		for i := 0; i < n; i++ {
			ping.Send(i)
			pong.Recv()
		}
		ping.Close()
	}
	real := sim.NewRealEnv()
	p.set("sim.real_chan_rt_ns", p.best(3, 1, func(int) { pingPong(real, 20000) }).ns/20000)
	real.Shutdown()
	virt := func(fn func(env *sim.VirtEnv)) float64 {
		return p.best(3, 1, func(int) { env := sim.NewVirtEnv(); env.Run(func() { fn(env) }) }).ns
	}
	p.set("sim.virt_chan_rt_ns", virt(func(env *sim.VirtEnv) { pingPong(env, 20000) })/20000)
	// Eight sleepers, a thousand wake-ups per virtual second each, for one
	// virtual second.
	const sleepers, wakeups = 8, 1000
	ns := virt(func(env *sim.VirtEnv) {
		group(env, sleepers, func(int) {
			for k := 0; k < wakeups; k++ {
				env.Sleep(time.Second / wakeups)
			}
		})
	})
	p.set("sim.virt_events_per_s", sleepers*wakeups/(ns/1e9))
	p.set("sim.wall_per_virt_s", ns/1e9)
	return nil
}

func (p *probeSet) obs() error {
	reg := obs.NewRegistry()
	ctr, hist := reg.Counter("probe.counter"), reg.Histogram("probe.hist")
	p.set("obs.counter_inc_ns", p.best(3, 200000, func(int) { ctr.Inc() }).ns)
	p.set("obs.histogram_observe_ns", p.best(3, 200000, func(i int) { hist.Observe(time.Duration(i)) }).ns)
	start := time.Now()
	tr := obs.NewTracer(256, func() time.Duration { return time.Since(start) })
	p.set("obs.span_ns", p.best(3, 50000, func(int) { tr.StartRoot("stat", "/p/f").End(nil) }).ns)
	return nil
}

func (p *probeSet) qos() error {
	lim := qos.NewLimiter(qos.Limits{Rate: 1e9, Burst: 1e9})
	now := time.Now()
	p.set("qos.admit_ns", p.best(3, 100000, func(i int) { lim.Admit("tenant-a", now.Add(time.Duration(i))) }).ns)
	return nil
}
