package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"arkfs/internal/obs"
)

// metricDecl mirrors one entry of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them; README.md says what the
// three phases are on each workload.
var endToEnd = []metricDecl{
	{Name: "write_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "read_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "phase3_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "live_heap_mib", Unit: "MiB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// endToEndOf reduces the untraced rounds of a run to the end-to-end metrics:
// the median over rounds of each, what a round timed on the wall clock being
// taken at reference speed (the box ran r.slow times slower than the reference
// during that round; see calib.go).
func endToEndOf(rounds []*round) map[string]metricValue {
	col := func(f func(*round) float64) float64 {
		v := make([]float64, len(rounds))
		for i, r := range rounds {
			v[i] = f(r)
		}
		return median(v)
	}
	perSec := func(k int) float64 {
		return col(func(r *round) float64 {
			if r.virt {
				return r.phases[k].perSec()
			}
			return r.phases[k].perSec() * r.slow
		})
	}
	return map[string]metricValue{
		"write_ops_per_s":  {perSec(0), "ops/s"},
		"read_ops_per_s":   {perSec(1), "ops/s"},
		"phase3_ops_per_s": {perSec(2), "ops/s"},
		"wall_s":           {col(func(r *round) float64 { return r.wall.Seconds() / r.slow }), "s"},
		"live_heap_mib":    {col(func(r *round) float64 { return r.heap }), "MiB"},
		"setup_s":          {col(func(r *round) float64 { return r.setup.Seconds() / r.slow }), "s"},
	}
}

func lower(unit string, names ...string) []metricDecl {
	out := make([]metricDecl, len(names))
	for i, n := range names {
		out[i] = metricDecl{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDecl {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

func concat(parts ...[]metricDecl) []metricDecl {
	var out []metricDecl
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// ledgerMetrics are the per-layer metrics that come from the workload itself:
// seam spans (fsapi, objstore), the program's obs registry, and the bench
// process. probeMetrics (probes.go) are the rest. A traced run reports both.
var ledgerMetrics = concat(
	// fsapi seam: the op-level view of the end-to-end throughputs.
	lower("us", "fsapi.create_p50_us", "fsapi.create_p99_us", "fsapi.stat_p50_us", "fsapi.stat_p99_us",
		"fsapi.unlink_p50_us", "fsapi.unlink_p99_us", "fsapi.open_read_p50_us", "fsapi.open_read_p99_us",
		"fsapi.write_req_p50_us", "fsapi.read_req_p50_us"),
	lower("ms", "fsapi.fsync_p50_ms", "fsapi.flushall_ms", "fsapi.drain_ms"),
	higher("ops/s", "fsapi.extra_ops_per_s"),
	// core, from the registry.
	higher("count", "core.meta_local"),
	lower("count", "core.meta_remote"),
	lower("MiB", "core.client_heap_mib"),
	// rpc, from the registry.
	lower("count", "rpc.calls"),
	lower("us", "rpc.queue_wait_p50_us", "rpc.service_p50_us"),
	// journal, from the registry.
	lower("count", "journal.appends", "journal.commits", "journal.checkpoints"),
	higher("ops", "journal.ops_per_commit"),
	lower("us", "journal.commit_p50_us", "journal.checkpoint_p50_us"),
	lower("ms", "journal.virt_recovery_ms"),
	// cache, from the registry.
	higher("ratio", "cache.hit_ratio"),
	higher("count", "cache.readaheads"),
	lower("count", "cache.writebacks", "cache.evictions"),
	// objstore seam.
	lower("count", "objstore.puts", "objstore.gets", "objstore.deletes", "objstore.lists"),
	lower("bytes", "objstore.bytes_put", "objstore.bytes_get"),
	lower("s", "objstore.busy_s"),
	lower("count", "objstore.j_puts"),
	lower("bytes", "objstore.j_bytes_put"),
	lower("count", "objstore.i_puts", "objstore.e_puts"),
	lower("bytes", "objstore.e_bytes_put"),
	lower("count", "objstore.d_puts", "objstore.i_gets", "objstore.e_gets", "objstore.d_gets"),
	lower("ratio", "objstore.put_bytes_per_user_byte", "objstore.stored_bytes_per_user_byte"),
	// lease, from the registry.
	lower("count", "lease.acquires", "lease.extensions", "lease.redirects"),
	lower("us", "lease.acquire_wait_p50_us"),
	// obs: what the traced pass costs the workload's first throughput.
	lower("%", "obs.overhead_pct"),
	// proc: the Go runtime as the bench process sees it.
	lower("bytes/op", "proc.alloc_bytes_per_op"),
	lower("1/op", "proc.allocs_per_op"),
	lower("ratio", "proc.gc_cpu_share"),
	lower("ms", "proc.gc_pause_max_ms"),
	lower("MiB", "proc.peak_rss_mib"),
	lower("ratio", "proc.generator_share"),
	lower("ratio", "proc.box_slowdown"),
)

var perLayer = concat(ledgerMetrics, probeMetrics())

// ledgerOf reduces the rounds of a traced run to ledgerMetrics.
func ledgerOf(plain, traced []*round, slowdown float64) map[string]metricValue {
	m := map[string]metricValue{}
	for _, d := range ledgerMetrics {
		m[d.Name] = metricValue{Unit: d.Unit}
	}
	set := func(name string, v float64) { m[name] = metricValue{Value: v, Unit: m[name].Unit} }

	// Seam spans. Latency samples are pooled over the traced rounds; counts
	// are per round, reduced to the median round.
	samples := map[opName][]float64{}
	var counts []map[string]float64
	var fsBusy, loadTime float64
	for _, r := range traced {
		c := map[string]float64{}
		for _, s := range r.rec.all() {
			ph := r.rec.phases[s.phase]
			dur := float64(s.end - s.start)
			if s.op < opPut {
				if ph.timed {
					samples[s.op] = append(samples[s.op], dur)
					fsBusy += dur
				}
				continue
			}
			if ph.name == "setup" {
				continue
			}
			cl := string(s.class)
			c["busy"] += dur
			switch s.op {
			case opPut:
				c["puts"]++
				c["bytes_put"] += float64(s.bytes)
				c[cl+"_puts"]++
				c[cl+"_bytes_put"] += float64(s.bytes)
			case opGet, opGetRange:
				c["gets"]++
				c["bytes_get"] += float64(s.bytes)
				c[cl+"_gets"]++
			case opDelete:
				c["deletes"]++
			case opList:
				c["lists"]++
			}
		}
		if r.userBytes > 0 {
			c["put_per_user"] = c["bytes_put"] / float64(r.userBytes)
			c["stored_per_user"] = float64(r.storedBytes) / float64(r.userBytes)
		}
		c["client_heap"] = r.heap - float64(r.heldBytes)/(1<<20)
		counts = append(counts, c)
		loadTime += float64(r.loadTime)
	}
	us := func(op opName, q float64) float64 { return quantile(samples[op], q) / 1e3 }
	set("fsapi.create_p50_us", us(opCreate, 0.5))
	set("fsapi.create_p99_us", us(opCreate, 0.99))
	set("fsapi.stat_p50_us", us(opStat, 0.5))
	set("fsapi.stat_p99_us", us(opStat, 0.99))
	set("fsapi.unlink_p50_us", us(opUnlink, 0.5))
	set("fsapi.unlink_p99_us", us(opUnlink, 0.99))
	set("fsapi.open_read_p50_us", us(opOpen, 0.5))
	set("fsapi.open_read_p99_us", us(opOpen, 0.99))
	set("fsapi.write_req_p50_us", us(opWrite, 0.5))
	set("fsapi.read_req_p50_us", us(opRead, 0.5))
	set("fsapi.fsync_p50_ms", us(opFsync, 0.5)/1e3)
	set("fsapi.flushall_ms", us(opFlushAll, 0.5)/1e3)
	cnt := func(key string) float64 {
		v := make([]float64, len(counts))
		for i, c := range counts {
			v[i] = c[key]
		}
		return median(v)
	}
	for _, k := range []string{"puts", "gets", "deletes", "lists", "bytes_put", "bytes_get",
		"j_puts", "j_bytes_put", "i_puts", "e_puts", "e_bytes_put", "d_puts", "i_gets", "e_gets", "d_gets"} {
		set("objstore."+k, cnt(k))
	}
	set("objstore.busy_s", cnt("busy")/1e9)
	set("objstore.put_bytes_per_user_byte", cnt("put_per_user"))
	set("objstore.stored_bytes_per_user_byte", cnt("stored_per_user"))
	set("core.client_heap_mib", cnt("client_heap"))
	if loadTime > 0 {
		set("proc.generator_share", 1-fsBusy/loadTime)
	}

	// Registry counts: the median traced round.
	reg := func(f func(obs.Snapshot) float64) float64 {
		v := make([]float64, len(traced))
		for i, r := range traced {
			v[i] = f(r.snap)
		}
		return median(v)
	}
	counter := func(name string) float64 {
		return reg(func(s obs.Snapshot) float64 { return float64(s.Counters[name]) })
	}
	p50us := func(name string) float64 {
		return reg(func(s obs.Snapshot) float64 { return float64(s.Histograms[name].P50) / 1e3 })
	}
	set("core.meta_local", counter("core.meta.local"))
	set("core.meta_remote", counter("core.meta.remote"))
	set("rpc.calls", counter("rpc.calls"))
	set("rpc.queue_wait_p50_us", p50us("rpc.queue.wait"))
	set("rpc.service_p50_us", p50us("rpc.queue.service"))
	set("journal.appends", counter("journal.appends"))
	set("journal.commits", counter("journal.commits"))
	set("journal.checkpoints", counter("journal.checkpoints"))
	set("journal.ops_per_commit", reg(func(s obs.Snapshot) float64 {
		if c := s.Counters["journal.commits"]; c > 0 {
			return float64(s.Counters["journal.ops"]) / float64(c)
		}
		return 0
	}))
	set("journal.commit_p50_us", p50us("journal.commit.latency"))
	set("journal.checkpoint_p50_us", p50us("journal.checkpoint.latency"))
	set("cache.hit_ratio", reg(func(s obs.Snapshot) float64 {
		h, m := float64(s.Counters["cache.hits"]), float64(s.Counters["cache.misses"])
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}))
	set("cache.readaheads", counter("cache.readaheads"))
	set("cache.writebacks", counter("cache.writebacks"))
	set("cache.evictions", counter("cache.evictions"))
	set("lease.acquires", counter("lease.acquires"))
	set("lease.extensions", counter("lease.extensions"))
	set("lease.redirects", counter("lease.redirects"))
	set("lease.acquire_wait_p50_us", p50us("core.lease.acquire.wait"))

	// Round-level readings.
	col := func(rs []*round, f func(*round) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	all := append(append([]*round(nil), plain...), traced...)
	set("fsapi.drain_ms", col(plain, func(r *round) float64 { return r.drain.Seconds() * 1e3 }))
	set("fsapi.extra_ops_per_s", col(plain, func(r *round) float64 {
		if len(r.extra) == 0 {
			return 0
		}
		return r.extra[0].perSec()
	}))
	set("journal.virt_recovery_ms", col(all, func(r *round) float64 { return r.virtRecover.Seconds() * 1e3 }))
	first := func(r *round) float64 { return r.phases[0].perSec() }
	if t := col(traced, first); t > 0 {
		set("obs.overhead_pct", (col(plain, first)/t-1)*100)
	}
	var ops, bytes, mallocs float64
	for _, r := range plain {
		for _, p := range append(r.phases[:], r.extra...) {
			ops += float64(p.ops)
		}
		bytes += float64(r.allocBytes)
		mallocs += float64(r.allocs)
	}
	if ops > 0 {
		set("proc.alloc_bytes_per_op", bytes/ops)
		set("proc.allocs_per_op", mallocs/ops)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("proc.gc_cpu_share", ms.GCCPUFraction)
	var pause uint64
	for _, p := range ms.PauseNs {
		pause = max(pause, p)
	}
	set("proc.gc_pause_max_ms", float64(pause)/1e6)
	set("proc.peak_rss_mib", peakRSS(ms))
	set("proc.box_slowdown", slowdown)
	return m
}

// peakRSS is the process's high-water resident set (VmHWM), or what the Go
// runtime obtained from the OS where /proc is not there.
func peakRSS(ms runtime.MemStats) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return float64(ms.Sys) / (1 << 20)
}

// quantile is the q-quantile of v, lowered to the highest quantile that still
// has ten samples beyond it (the median when there are fewer than twenty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if q > 0.5 {
		i = min(i, len(s)-11)
		i = max(i, len(s)/2)
	}
	return s[min(i, len(s)-1)]
}
