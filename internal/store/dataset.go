package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/obsv"
	"repro/internal/tidlist"
)

// Store-health metrics (see /metricsz on the daemon).
const (
	mnStoreBundles     = "store_bundles_total"
	mnStoreBytesMapped = "store_bytes_mapped"
	mnStoreOpenNS      = "store_open_ns"
	mnStoreSpills      = "store_spills_total"
)

var (
	storeBundles     = obsv.Default.Counter(mnStoreBundles, "bundle files created or opened")
	storeBytesMapped = obsv.Default.Gauge(mnStoreBytesMapped, "bytes of bundle data currently mapped (or loaded on non-mmap platforms)")
	storeOpenNS      = obsv.Default.Histogram(mnStoreOpenNS, "nanoseconds to open one stored dataset (index load, map, checksum verify)", nil)
	storeSpills      = obsv.Default.Counter(mnStoreSpills, "representation transforms appended to existing bundles")
)

// On-disk names inside a dataset directory.
const (
	datasetSuffix  = ".ds"
	partialSuffix  = ".ds.partial"
	indexName      = "index.json"
	bundleName     = "vertical.bundle"
	horizontalName = "horizontal.db"
)

// indexVersion versions index.json independently of the bundle format.
const indexVersion = 1

// DefaultSegmentBytes is the bundle segment size CreateDataset uses: the
// residency granularity for out-of-core mining. Large enough that sparse
// tid-lists rarely split, small enough that a budget of a few segments
// is a meaningful working set.
const DefaultSegmentBytes int64 = 1 << 20

// Meta is the dataset header carried in the index: identity plus the
// horizontal-shape figures the service reports without loading data.
type Meta struct {
	Name         string  `json:"name"`
	Source       string  `json:"source"`
	Transactions int     `json:"transactions"`
	NumItems     int     `json:"numItems"`
	AvgLen       float64 `json:"avgLen"`
	SizeBytes    int64   `json:"sizeBytes"`
}

// index is the index.json document. BundleBytes is the commit point: the
// bundle's committed extent. A crash mid-spill leaves bundle bytes past
// BundleBytes (truncated on open) or a fully-written bundle with the old
// index (the appended records are simply dropped); either way the
// dataset stays consistent because the index is only replaced — via
// write-to-temp, fsync, rename — after the bundle bytes it points at are
// durable.
type index struct {
	Version     int   `json:"version"`
	Meta        Meta  `json:"meta"`
	BundleBytes int64 `json:"bundleBytes"`
	// SegmentBytes is the v2 segment size the bundle was partitioned
	// with; 0 for an unsegmented v1 bundle.
	SegmentBytes int64    `json:"segmentBytes,omitempty"`
	Records      []Record `json:"records"`
}

// Dataset is one stored dataset opened for reading. The sparse tid-lists
// (and any spilled bitsets) are views over the mapped bundle: immutable,
// safe for concurrent use, and valid until Close. Per the tidlist
// aliasing contract they may be kernel operands but never scratch.
type Dataset struct {
	dir string
	idx index

	data    []byte
	cleanup func() error

	sparse   []tidlist.List     // index = item; nil where no record
	bitsets  []*tidlist.Bitset  // index = item; nil where not spilled
	roarings []*tidlist.Roaring // index = item; nil where not spilled

	horizOnce sync.Once
	horiz     *db.Database
	horizErr  error

	gaugeOnce sync.Once

	closeOnce sync.Once
	closeErr  error
}

// CreateDataset writes a complete dataset directory at path using the
// crash-safe protocol: everything lands in path+".partial" first, every
// file and the parent directory are fsynced, then one atomic rename
// publishes the dataset. A crash at any earlier point leaves only a
// partial directory, which Open sweeps away. lists is the per-item
// vertical transform of d (index = item, as built by one horizontal
// pass); items with empty lists get no record.
func CreateDataset(path string, meta Meta, d *db.Database, lists []tidlist.List) error {
	return CreateDatasetSeg(path, meta, d, lists, DefaultSegmentBytes)
}

// CreateDatasetSeg is CreateDataset with an explicit bundle segment
// size. segmentBytes > 0 (a multiple of 8, at least one record header
// plus 8 payload bytes) writes a v2 partitioned bundle whose physical
// records never cross a segment boundary; segmentBytes == 0 writes the
// legacy unsegmented v1 format.
func CreateDatasetSeg(path string, meta Meta, d *db.Database, lists []tidlist.List, segmentBytes int64) error {
	if len(lists) != meta.NumItems {
		return fmt.Errorf("store: %d lists for %d items", len(lists), meta.NumItems)
	}
	if segmentBytes != 0 && (segmentBytes%8 != 0 || segmentBytes < recordHeaderSize+8) {
		return fmt.Errorf("store: invalid segment size %d", segmentBytes)
	}
	tmp := partialPath(path)
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}

	version := uint32(bundleVersion)
	if segmentBytes > 0 {
		version = bundleVersion2
	}
	bundle := appendBundleHeader(nil, version)
	idx := index{Version: indexVersion, Meta: meta, SegmentBytes: segmentBytes}
	var payload []byte
	for item, l := range lists {
		if len(l) == 0 {
			continue
		}
		payload = tidlist.AppendListBytes(payload[:0], l)
		var rec Record
		bundle, rec = appendRecordSeg(bundle, int64(len(bundle)), segmentBytes, item, EncSparse, len(l), payload)
		idx.Records = append(idx.Records, rec)
	}
	idx.BundleBytes = int64(len(bundle))

	if err := writeFileSync(filepath.Join(tmp, bundleName), bundle); err != nil {
		return err
	}
	hf, err := os.Create(filepath.Join(tmp, horizontalName))
	if err != nil {
		return err
	}
	if err := d.Encode(hf); err != nil {
		hf.Close()
		return err
	}
	if err := hf.Sync(); err != nil {
		hf.Close()
		return err
	}
	if err := hf.Close(); err != nil {
		return err
	}
	ib, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(tmp, indexName), append(ib, '\n')); err != nil {
		return err
	}
	if err := syncDir(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	storeBundles.Inc()
	return syncDir(filepath.Dir(path))
}

// OpenDataset opens the dataset directory at path: loads the index, maps
// the bundle's committed extent (truncating any torn tail a crashed
// spill left behind), and checksum-verifies every record before its
// bytes can be aliased as tid-lists. Corruption inside the committed
// extent returns an error matching ErrCorruptBundle.
func OpenDataset(path string) (*Dataset, error) {
	start := time.Now()
	ds, err := openDataset(path)
	if err != nil {
		return nil, err
	}
	storeOpenNS.ObserveSince(start)
	storeBundles.Inc()
	return ds, nil
}

func openDataset(path string) (*Dataset, error) {
	ib, err := os.ReadFile(filepath.Join(path, indexName))
	if err != nil {
		return nil, err
	}
	ds := &Dataset{dir: path}
	if err := json.Unmarshal(ib, &ds.idx); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptBundle, indexName, err)
	}
	if ds.idx.Version != indexVersion {
		return nil, fmt.Errorf("%w: unsupported index version %d", ErrCorruptBundle, ds.idx.Version)
	}

	bp := filepath.Join(path, bundleName)
	f, err := os.OpenFile(bp, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	switch {
	case fi.Size() < ds.idx.BundleBytes:
		return nil, fmt.Errorf("%w: bundle is %d bytes, index commits %d",
			ErrCorruptBundle, fi.Size(), ds.idx.BundleBytes)
	case fi.Size() > ds.idx.BundleBytes:
		// Torn tail from a crashed spill append: the bytes past the
		// committed extent were never referenced by any index, so they
		// are dropped, not data loss.
		if err := f.Truncate(ds.idx.BundleBytes); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
	}

	data, cleanup, err := mapFile(f, ds.idx.BundleBytes)
	if err != nil {
		return nil, err
	}
	ds.data, ds.cleanup = data, cleanup
	if err := ds.decode(); err != nil {
		cleanup()
		return nil, err
	}
	storeBytesMapped.Add(int64(len(ds.data)))
	return ds, nil
}

// decode verifies the header and every record, building the per-item
// view slices.
func (ds *Dataset) decode() error {
	if err := checkBundleHeader(ds.data); err != nil {
		return err
	}
	ds.sparse = make([]tidlist.List, ds.idx.Meta.NumItems)
	ds.bitsets = make([]*tidlist.Bitset, ds.idx.Meta.NumItems)
	ds.roarings = make([]*tidlist.Roaring, ds.idx.Meta.NumItems)
	for _, rec := range ds.idx.Records {
		if rec.Item < 0 || rec.Item >= ds.idx.Meta.NumItems {
			return fmt.Errorf("%w: record for out-of-range item %d", ErrCorruptBundle, rec.Item)
		}
		payload, err := recordPayload(ds.data, rec)
		if err != nil {
			return err
		}
		switch rec.Enc {
		case EncSparse:
			l, err := tidlist.ListFromBytes(payload)
			if err != nil {
				return fmt.Errorf("%w: item %d: %v", ErrCorruptBundle, rec.Item, err)
			}
			if len(l) != rec.Support {
				return fmt.Errorf("%w: item %d has %d tids, index says %d",
					ErrCorruptBundle, rec.Item, len(l), rec.Support)
			}
			ds.sparse[rec.Item] = l
		case EncBitset:
			b, err := tidlist.BitsetFromBytes(payload)
			if err != nil {
				return fmt.Errorf("%w: item %d: %v", ErrCorruptBundle, rec.Item, err)
			}
			if b.Support() != rec.Support {
				return fmt.Errorf("%w: item %d bitset has support %d, index says %d",
					ErrCorruptBundle, rec.Item, b.Support(), rec.Support)
			}
			ds.bitsets[rec.Item] = b
		case EncRoaring:
			r, err := tidlist.RoaringFromBytes(payload)
			if err != nil {
				return fmt.Errorf("%w: item %d: %v", ErrCorruptBundle, rec.Item, err)
			}
			if r.Support() != rec.Support {
				return fmt.Errorf("%w: item %d roaring has support %d, index says %d",
					ErrCorruptBundle, rec.Item, r.Support(), rec.Support)
			}
			ds.roarings[rec.Item] = r
		default:
			return fmt.Errorf("%w: item %d has unknown encoding %d", ErrCorruptBundle, rec.Item, rec.Enc)
		}
	}
	return nil
}

// Meta returns the dataset header.
func (ds *Dataset) Meta() Meta { return ds.idx.Meta }

// NumTransactions is |D|, read off the dataset header. Together with
// Horizontal and VerticalSets it makes *Dataset a repro.Source, so
// callers hand a stored dataset straight to repro.MineFrom.
func (ds *Dataset) NumTransactions() int { return ds.idx.Meta.Transactions }

// VerticalSets is Sets with the repro.Source ok contract: the store
// always serves the vertical transform without a horizontal scan, so ok
// is always true.
func (ds *Dataset) VerticalSets(r tidlist.Repr) ([]tidlist.Set, bool) {
	return ds.Sets(r), true
}

// SparseLists returns the per-item sparse tid-lists as views over the
// mapping (index = item; nil for items with no transactions). The slice
// and the lists are immutable.
func (ds *Dataset) SparseLists() []tidlist.List { return ds.sparse }

// Bitsets returns the spilled dense transform as views over the mapping,
// or ok=false when the stored bitsets do not cover every non-empty item
// (no spill has happened, or it predates new data).
func (ds *Dataset) Bitsets() ([]*tidlist.Bitset, bool) {
	for item, l := range ds.sparse {
		if len(l) > 0 && ds.bitsets[item] == nil {
			return nil, false
		}
	}
	return ds.bitsets, true
}

// Roarings returns the spilled containerized transform as views over the
// mapping, or ok=false when the stored roarings do not cover every
// non-empty item.
func (ds *Dataset) Roarings() ([]*tidlist.Roaring, bool) {
	for item, l := range ds.sparse {
		if len(l) > 0 && ds.roarings[item] == nil {
			return nil, false
		}
	}
	return ds.roarings, true
}

// Sets returns the vertical transform as []tidlist.Set under the given
// representation, served from the mapping wherever possible: sparse
// straight from the bundle, bitset from a previous spill (or encoded in
// memory when none exists — this read-only accessor never writes), auto
// picking the smaller encoding per item. The slices alias the mapping
// and are immutable.
func (ds *Dataset) Sets(r tidlist.Repr) []tidlist.Set {
	out := make([]tidlist.Set, ds.idx.Meta.NumItems)
	dense := func(item int) *tidlist.Bitset {
		if b := ds.bitsets[item]; b != nil {
			return b
		}
		return tidlist.NewBitset(ds.sparse[item])
	}
	roaring := func(item int) *tidlist.Roaring {
		if rr := ds.roarings[item]; rr != nil {
			return rr
		}
		return tidlist.NewRoaring(ds.sparse[item])
	}
	for item, l := range ds.sparse {
		if len(l) == 0 {
			continue
		}
		switch r {
		case tidlist.ReprBitset:
			out[item] = dense(item)
		case tidlist.ReprRoaring:
			out[item] = roaring(item)
		case tidlist.ReprSparse:
			out[item] = l
		default: // ReprAuto: cheapest of the three encodings per item
			switch _, enc := tidlist.EncodedSize(l, tidlist.ReprAuto); enc {
			case tidlist.ReprBitset:
				out[item] = dense(item)
			case tidlist.ReprRoaring:
				out[item] = roaring(item)
			default:
				out[item] = l
			}
		}
	}
	return out
}

// Horizontal lazily decodes the stored horizontal database. The vertical
// mining path never calls this; it exists for algorithms that still scan
// horizontally (apriori and friends) and costs one file read on first
// use.
func (ds *Dataset) Horizontal() (*db.Database, error) {
	ds.horizOnce.Do(func() {
		f, err := os.Open(filepath.Join(ds.dir, horizontalName))
		if err != nil {
			ds.horizErr = err
			return
		}
		defer f.Close()
		ds.horiz, ds.horizErr = db.Decode(f)
	})
	return ds.horiz, ds.horizErr
}

// AppendBitsets spills the dense transform to disk: bitset records for
// every non-empty item not already covered are appended past the
// committed extent, the bundle is fsynced, and only then is the index
// atomically replaced to commit them. The in-process views are
// unchanged — the spill pays off on the next open, which serves the
// bitsets from the mapping instead of re-encoding. bs is indexed by item
// (as returned by Dataset.VerticalBitsets); nil and empty entries are
// skipped.
func (ds *Dataset) AppendBitsets(bs []*tidlist.Bitset) error {
	return ds.appendSpill(EncBitset, len(bs), func(item int) (int, func([]byte) []byte) {
		b := bs[item]
		if b == nil || b.Support() == 0 {
			return 0, nil
		}
		return b.Support(), func(p []byte) []byte { return tidlist.AppendBitsetBytes(p, b) }
	})
}

// AppendRoarings spills the containerized transform to disk with the
// same crash-safe append protocol as AppendBitsets. rs is indexed by
// item; nil and empty entries are skipped.
func (ds *Dataset) AppendRoarings(rs []*tidlist.Roaring) error {
	return ds.appendSpill(EncRoaring, len(rs), func(item int) (int, func([]byte) []byte) {
		r := rs[item]
		if r == nil || r.Support() == 0 {
			return 0, nil
		}
		return r.Support(), func(p []byte) []byte { return tidlist.AppendRoaringBytes(p, r) }
	})
}

// appendSpill implements the shared spill-append protocol: records for
// every item in [0, n) with a payload (per the get callback) and no
// existing record under enc are appended past the committed extent, the
// bundle is fsynced, and only then is the index atomically replaced.
func (ds *Dataset) appendSpill(enc, n int, get func(item int) (support int, encode func([]byte) []byte)) error {
	covered := make(map[int]bool)
	for _, rec := range ds.idx.Records {
		if rec.Enc == enc {
			covered[rec.Item] = true
		}
	}
	var buf []byte
	idx := ds.idx
	idx.Records = append([]Record(nil), ds.idx.Records...)
	off := ds.idx.BundleBytes
	var payload []byte
	for item := 0; item < n; item++ {
		if item >= ds.idx.Meta.NumItems || covered[item] {
			continue
		}
		support, encode := get(item)
		if encode == nil {
			continue
		}
		payload = encode(payload[:0])
		var rec Record
		buf, rec = appendRecordSeg(buf, off+int64(len(buf)), ds.idx.SegmentBytes, item, enc, support, payload)
		idx.Records = append(idx.Records, rec)
	}
	if len(buf) == 0 {
		return nil
	}
	idx.BundleBytes = off + int64(len(buf))

	f, err := os.OpenFile(filepath.Join(ds.dir, bundleName), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(buf, off); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	ib, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(ds.dir, indexName+".tmp")
	if err := writeFileSync(tmp, append(ib, '\n')); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(ds.dir, indexName)); err != nil {
		return err
	}
	if err := syncDir(ds.dir); err != nil {
		return err
	}
	ds.idx = idx
	storeSpills.Inc()
	return nil
}

// BytesMapped returns the size of the committed extent this dataset has
// mapped.
func (ds *Dataset) BytesMapped() int64 { return int64(len(ds.data)) }

// SegmentBytes returns the bundle's segment size, or 0 for an
// unsegmented v1 bundle.
func (ds *Dataset) SegmentBytes() int64 { return ds.idx.SegmentBytes }

// releaseMapped retires this dataset's contribution to the
// store_bytes_mapped gauge. Idempotent. Called from Close and from
// Store.Remove — a removed dataset's mapping may outlive removal while
// orphaned views drain, but it no longer counts as live store footprint.
func (ds *Dataset) releaseMapped() {
	ds.gaugeOnce.Do(func() {
		storeBytesMapped.Add(-int64(len(ds.data)))
	})
}

// Close releases the mapping. Every view handed out becomes invalid;
// callers must drop their Dataset references first.
func (ds *Dataset) Close() error {
	ds.closeOnce.Do(func() {
		if ds.cleanup != nil {
			ds.releaseMapped()
			ds.closeErr = ds.cleanup()
		}
		ds.data, ds.sparse, ds.bitsets, ds.roarings = nil, nil, nil, nil
	})
	return ds.closeErr
}

// DatasetMeta derives the stored header for d.
func DatasetMeta(name, source string, d *db.Database) Meta {
	return Meta{
		Name:         name,
		Source:       source,
		Transactions: d.Len(),
		NumItems:     d.NumItems,
		AvgLen:       d.AvgLen(),
		SizeBytes:    d.SizeBytes(),
	}
}

// VerticalLists builds the per-item vertical transform of d in one
// horizontal pass, the slice CreateDataset persists.
func VerticalLists(d *db.Database) []tidlist.List {
	return tidlist.BuildItems(d, nil)
}

// partialPath is the temporary directory name CreateDataset stages into.
func partialPath(path string) string {
	if strings.HasSuffix(path, datasetSuffix) {
		return strings.TrimSuffix(path, datasetSuffix) + partialSuffix
	}
	return path + ".partial"
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable. Some filesystems reject directory fsync; that is loss of
// durability, not correctness, so unsupported errors are ignored.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
