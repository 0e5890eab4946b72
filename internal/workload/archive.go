package workload

import (
	"archive/tar"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// Dataset is a synthetic image corpus standing in for MS-COCO (the paper:
// 41 K images of tens-to-hundreds of KB, ≈7 GB per dataset). Sizes are drawn
// log-uniformly from [MinSize, MaxSize] with a fixed seed.
type Dataset struct {
	Files []DatasetFile
	Total int64
}

// DatasetFile is one synthetic image.
type DatasetFile struct {
	Name string
	Size int64
	// Category buckets files the way the paper's scenario "categorizes by
	// date or data type" after extraction.
	Category int
}

// DatasetConfig parameterizes the generator.
type DatasetConfig struct {
	Files      int
	MinSize    int64
	MaxSize    int64
	Categories int
	Seed       int64
}

// DefaultDatasetConfig mirrors MS-COCO's shape scaled for in-memory runs:
// the file-count-to-size ratio matches (tens of KB per image).
func DefaultDatasetConfig() DatasetConfig {
	return DatasetConfig{Files: 4096, MinSize: 2 << 10, MaxSize: 96 << 10, Categories: 16, Seed: 42}
}

// NewDataset generates the corpus deterministically.
func NewDataset(cfg DatasetConfig) *Dataset {
	if cfg.Files <= 0 {
		cfg.Files = 4096
	}
	if cfg.MinSize <= 0 {
		cfg.MinSize = 2 << 10
	}
	if cfg.MaxSize < cfg.MinSize {
		cfg.MaxSize = cfg.MinSize
	}
	if cfg.Categories <= 0 {
		cfg.Categories = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{Files: make([]DatasetFile, cfg.Files)}
	logMin, logMax := float64(cfg.MinSize), float64(cfg.MaxSize)
	for i := range d.Files {
		// Log-uniform size draw.
		u := rng.Float64()
		size := int64(logMin * pow(logMax/logMin, u))
		d.Files[i] = DatasetFile{
			Name:     fmt.Sprintf("img_%06d.jpg", i),
			Size:     size,
			Category: rng.Intn(cfg.Categories),
		}
		d.Total += size
	}
	return d
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }

// ExternalStore models the burst buffer / EBS volume the datasets move
// to and from: a sequential device with a fixed bandwidth (1 GB/s in the
// paper) whose transfers charge simulated time.
type ExternalStore struct {
	env       sim.Env
	Bandwidth int64 // bytes per second
}

// NewExternalStore creates the device model.
func NewExternalStore(env sim.Env, bandwidth int64) *ExternalStore {
	if bandwidth <= 0 {
		bandwidth = 1 << 30
	}
	return &ExternalStore{env: env, Bandwidth: bandwidth}
}

// Transfer charges the device time for moving n bytes.
func (e *ExternalStore) Transfer(n int64) {
	if n > 0 {
		e.env.Sleep(time.Duration(float64(n) / float64(e.Bandwidth) * float64(time.Second)))
	}
}

// externalReader streams a dataset's tar image out of the external store,
// charging bandwidth as bytes are consumed.
type externalReader struct {
	ext  *ExternalStore
	data []byte
	off  int
}

func (r *externalReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	r.ext.Transfer(int64(n))
	return n, nil
}

// ArchiveResult reports one archiving scenario pass.
type ArchiveResult struct {
	Name    string
	Files   int
	Bytes   int64
	Elapsed time.Duration
}

// ArchiveConfig parameterizes the §IV-D scenario.
type ArchiveConfig struct {
	Root string
	// External is the burst-buffer/EBS model.
	External *ExternalStore
}

// BuildTarImage renders the dataset as a tar stream (the form in which the
// administrator daemon moves it from the burst buffer).
func BuildTarImage(d *Dataset, seed int64) ([]byte, error) {
	var buf writeCounterBuffer
	tw := tar.NewWriter(&buf)
	body := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(seed))
	_, _ = rng.Read(body)
	for _, f := range d.Files {
		hdr := &tar.Header{
			Name: fmt.Sprintf("dataset/%s", f.Name),
			Mode: 0644,
			Size: f.Size,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, err
		}
		remaining := f.Size
		for remaining > 0 {
			n := int64(len(body))
			if n > remaining {
				n = remaining
			}
			if _, err := tw.Write(body[:n]); err != nil {
				return nil, err
			}
			remaining -= n
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.data, nil
}

type writeCounterBuffer struct {
	data []byte
}

func (b *writeCounterBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

// Archive runs the paper's Archiving scenario for one process: stream the
// dataset's tar image from the external store into the file system, then
// extract it, categorizing files into per-category directories.
func Archive(env sim.Env, m fsapi.FileSystem, d *Dataset, tarImage []byte, cfg ArchiveConfig) (ArchiveResult, error) {
	ctx := context.Background()
	start := env.Now()
	root := cfg.Root
	if root == "" {
		root = "/archive"
	}
	if err := m.Mkdir(ctx, root, 0777); err != nil {
		return ArchiveResult{}, fmt.Errorf("workload: archive setup: %w", err)
	}

	// 1) Move the tar from the burst buffer into campaign storage.
	tarPath := root + "/dataset.tar"
	dst, err := m.Open(ctx, tarPath, types.OWronly|types.OCreate|types.OTrunc, 0644)
	if err != nil {
		return ArchiveResult{}, err
	}
	src := &externalReader{ext: cfg.External, data: tarImage}
	if _, err := io.CopyBuffer(dst, src, make([]byte, 1<<20)); err != nil {
		return ArchiveResult{}, fmt.Errorf("workload: tar ingest: %w", err)
	}
	if err := dst.Fsync(ctx); err != nil {
		return ArchiveResult{}, err
	}
	if err := dst.Close(); err != nil {
		return ArchiveResult{}, err
	}

	// 2) Extract and categorize.
	catDirs := map[int]string{}
	for _, f := range d.Files {
		if _, ok := catDirs[f.Category]; !ok {
			dir := fmt.Sprintf("%s/cat-%02d", root, f.Category)
			if err := m.Mkdir(ctx, dir, 0777); err != nil {
				return ArchiveResult{}, err
			}
			catDirs[f.Category] = dir
		}
	}
	in, err := m.Open(ctx, tarPath, types.ORdonly, 0)
	if err != nil {
		return ArchiveResult{}, err
	}
	tr := tar.NewReader(in)
	idx := 0
	var moved int64
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return ArchiveResult{}, fmt.Errorf("workload: tar extract: %w", err)
		}
		cat := d.Files[idx].Category
		out, err := m.Open(ctx, fmt.Sprintf("%s/%s", catDirs[cat], d.Files[idx].Name),
			types.OWronly|types.OCreate|types.OTrunc, 0644)
		if err != nil {
			return ArchiveResult{}, err
		}
		n, err := io.CopyBuffer(out, tr, make([]byte, 1<<20))
		if err != nil {
			return ArchiveResult{}, err
		}
		if n != hdr.Size {
			return ArchiveResult{}, fmt.Errorf("workload: extracted %d of %d bytes", n, hdr.Size)
		}
		if err := out.Close(); err != nil {
			return ArchiveResult{}, err
		}
		moved += n
		idx++
	}
	if err := in.Close(); err != nil {
		return ArchiveResult{}, err
	}
	if err := m.Unlink(ctx, tarPath); err != nil {
		return ArchiveResult{}, err
	}
	if err := m.FlushAll(ctx); err != nil {
		return ArchiveResult{}, err
	}
	return ArchiveResult{Name: "Archiving", Files: idx, Bytes: moved, Elapsed: env.Now() - start}, nil
}

// Unarchive runs the reverse scenario: gather the categorized files back
// into a tar stream and move it to the burst buffer.
func Unarchive(env sim.Env, m fsapi.FileSystem, d *Dataset, cfg ArchiveConfig) (ArchiveResult, error) {
	ctx := context.Background()
	start := env.Now()
	root := cfg.Root
	if root == "" {
		root = "/archive"
	}
	var sink externalWriter
	sink.ext = cfg.External
	tw := tar.NewWriter(&sink)
	var moved int64
	for _, f := range d.Files {
		path := fmt.Sprintf("%s/cat-%02d/%s", root, f.Category, f.Name)
		in, err := m.Open(ctx, path, types.ORdonly, 0)
		if err != nil {
			return ArchiveResult{}, fmt.Errorf("workload: unarchive open: %w", err)
		}
		hdr := &tar.Header{Name: "restore/" + f.Name, Mode: 0644, Size: in.Size()}
		if err := tw.WriteHeader(hdr); err != nil {
			return ArchiveResult{}, err
		}
		n, err := io.CopyBuffer(tw, io.LimitReader(in, in.Size()), make([]byte, 1<<20))
		if err != nil {
			return ArchiveResult{}, fmt.Errorf("workload: unarchive copy: %w", err)
		}
		moved += n
		if err := in.Close(); err != nil {
			return ArchiveResult{}, err
		}
	}
	if err := tw.Close(); err != nil {
		return ArchiveResult{}, err
	}
	return ArchiveResult{Name: "Unarchiving", Files: len(d.Files), Bytes: moved, Elapsed: env.Now() - start}, nil
}

// externalWriter streams the outgoing tar to the burst buffer, charging its
// bandwidth.
type externalWriter struct {
	ext *ExternalStore
	n   int64
}

func (w *externalWriter) Write(p []byte) (int, error) {
	w.ext.Transfer(int64(len(p)))
	w.n += int64(len(p))
	return len(p), nil
}
