package workload

import (
	"context"
	"fmt"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// FioConfig parameterizes the large-file sequential I/O benchmark (the
// paper: 32 processes, 32 GiB per file, 128 KiB requests, fsync + cache drop
// between the write and read passes).
type FioConfig struct {
	FileSize int64
	ReqSize  int64
	// DropCaches is invoked between the write and read passes so reads hit
	// the storage path, not the local cache (system-specific hook).
	DropCaches func()
}

// BandwidthResult reports one fio pass.
type BandwidthResult struct {
	Name    string
	Bytes   int64
	Elapsed time.Duration
}

// BytesPerSec returns the aggregate bandwidth.
func (r BandwidthResult) BytesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds()
}

// GiBps returns the bandwidth in GiB/s, the unit of Fig. 6.
func (r BandwidthResult) GiBps() float64 { return r.BytesPerSec() / (1 << 30) }

// Fio writes then reads one large file per process sequentially and reports
// the aggregate WRITE and READ bandwidth.
func Fio(env sim.Env, mounts []fsapi.FileSystem, cfg FioConfig) (write, read BandwidthResult, err error) {
	ctx := context.Background()
	if cfg.ReqSize <= 0 {
		cfg.ReqSize = 128 << 10
	}
	if err := mounts[0].Mkdir(ctx, "/fio", 0777); err != nil {
		return write, read, fmt.Errorf("workload: fio setup: %w", err)
	}
	if err := mounts[0].FlushAll(ctx); err != nil {
		return write, read, err
	}
	totalBytes := cfg.FileSize * int64(len(mounts))
	path := func(p int) string { return fmt.Sprintf("/fio/file-%03d", p) }

	// WRITE pass: sequential writes, fsync at the end (as fio does).
	req := make([]byte, cfg.ReqSize)
	for i := range req {
		req[i] = byte(i)
	}
	start := env.Now()
	g := sim.NewGroup(env)
	errs := make([]error, len(mounts))
	for i, m := range mounts {
		i, m := i, m
		g.Go(func() {
			f, err := m.Open(ctx, path(i), types.OWronly|types.OCreate|types.OTrunc, 0644)
			if err != nil {
				errs[i] = err
				return
			}
			for off := int64(0); off < cfg.FileSize; off += cfg.ReqSize {
				n := cfg.ReqSize
				if r := cfg.FileSize - off; n > r {
					n = r
				}
				if _, err := f.WriteAt(req[:n], off); err != nil {
					errs[i] = err
					return
				}
			}
			if err := f.Fsync(ctx); err != nil {
				errs[i] = err
				return
			}
			errs[i] = f.Close()
		})
	}
	g.Wait()
	write = BandwidthResult{Name: "WRITE", Bytes: totalBytes, Elapsed: env.Now() - start}
	for _, e := range errs {
		if e != nil {
			return write, read, fmt.Errorf("workload: fio write: %w", e)
		}
	}

	// Drop caches so the read pass hits storage.
	if cfg.DropCaches != nil {
		cfg.DropCaches()
	}

	// READ pass: sequential reads.
	start = env.Now()
	g = sim.NewGroup(env)
	for i, m := range mounts {
		i, m := i, m
		g.Go(func() {
			f, err := m.Open(ctx, path(i), types.ORdonly, 0)
			if err != nil {
				errs[i] = err
				return
			}
			buf := make([]byte, cfg.ReqSize)
			for off := int64(0); off < cfg.FileSize; off += cfg.ReqSize {
				n := cfg.ReqSize
				if r := cfg.FileSize - off; n > r {
					n = r
				}
				if _, err := f.ReadAt(buf[:n], off); err != nil && err.Error() != "EOF" {
					errs[i] = err
					return
				}
			}
			errs[i] = f.Close()
		})
	}
	g.Wait()
	read = BandwidthResult{Name: "READ", Bytes: totalBytes, Elapsed: env.Now() - start}
	for _, e := range errs {
		if e != nil {
			return write, read, fmt.Errorf("workload: fio read: %w", e)
		}
	}
	return write, read, nil
}
