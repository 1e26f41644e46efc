package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxBytes is the disk tier's default size cap (1 GiB). At the
// typical few-KiB-per-report entry size that is room for hundreds of
// thousands of runs; operators fronting millions raise it explicitly.
const DefaultMaxBytes = 1 << 30

// quarantineDir is the subdirectory corrupt entries are moved into. They
// are kept, not deleted, so a decode failure stays diagnosable.
const quarantineDir = "quarantine"

// entrySuffix is appended to the digest to form an entry's filename.
const entrySuffix = ".json"

// Disk is the disk-backed content-addressed tier: one file per digest,
// written via temp-file + atomic rename so readers (including other
// processes sharing the directory — the CLI pre-warming a server's store)
// never observe a torn entry. The size cap is enforced on Put by evicting
// the entries with the oldest mtime; Get refreshes an entry's mtime, so
// eviction order is LRU, not FIFO.
//
// The in-memory size index covers entries written or scanned by this
// process; Get reads through to the filesystem regardless, so entries
// created by another process are still hits. The cap is therefore enforced
// against this process's view of the directory, which is resynchronized on
// open.
type Disk struct {
	dir      string
	maxBytes int64
	// metrics is swapped by SetMetrics while Get counts outside mu.
	metrics atomic.Pointer[Metrics]

	mu      sync.Mutex
	entries map[string]diskEntry
	size    int64
}

type diskEntry struct {
	size  int64
	mtime time.Time
}

// OpenDisk opens (creating if needed) a disk store rooted at dir with the
// given size cap (<= 0 selects DefaultMaxBytes). Counters are recorded
// into metrics (which may be shared with the memory tier's owner; nil gets
// a private set). A directory that cannot be created or written — the
// read-only-volume failure mode — returns an error; callers degrade to
// memory-only operation and log the loss rather than failing the service.
func OpenDisk(dir string, maxBytes int64, metrics *Metrics) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if metrics == nil {
		metrics = &Metrics{}
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// Probe writability now so a read-only volume surfaces at startup,
	// not on the first completed run.
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())

	d := &Disk{dir: dir, maxBytes: maxBytes, entries: make(map[string]diskEntry)}
	d.metrics.Store(metrics)
	if err := d.scan(); err != nil {
		return nil, err
	}
	return d, nil
}

// scan rebuilds the size index from the directory contents, so a reopened
// store enforces its cap over entries written by earlier processes too.
func (d *Disk) scan() error {
	dirents, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", d.dir, err)
	}
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		digest := strings.TrimSuffix(name, entrySuffix)
		if !validDigest(digest) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent eviction; skip
		}
		d.entries[digest] = diskEntry{size: info.Size(), mtime: info.ModTime()}
		d.size += info.Size()
	}
	return nil
}

// validDigest accepts lowercase-hex content addresses (every run digest is
// a hex SHA-256) and rejects anything that could escape the store
// directory.
func validDigest(digest string) bool {
	if digest == "" || len(digest) > 128 {
		return false
	}
	for _, c := range digest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Dir returns the store's root directory (for startup logging).
func (d *Disk) Dir() string { return d.dir }

// SetMetrics redirects the disk tier's counters, so a store opened before
// its owner existed (the CLI and hcperf-serve open the -store directory
// first, then hand it to the pipeline or job manager) reports into the
// owner's tiered metrics set.
func (d *Disk) SetMetrics(m *Metrics) {
	if m != nil {
		d.metrics.Store(m)
	}
}

func (d *Disk) path(digest string) string {
	return filepath.Join(d.dir, digest+entrySuffix)
}

// Get returns the stored bytes for a digest, reading through to the
// filesystem (entries written by other processes sharing the directory are
// hits too). A hit refreshes the entry's mtime so the size cap evicts in
// least-recently-used order. A miss — or any read error — returns ok=false.
//
// The read and the mtime touch run outside d.mu, so they do not queue
// behind a concurrent Put's write, rename and eviction loop; the lock is
// taken only to update the index.
func (d *Disk) Get(digest string) ([]byte, bool) {
	if !validDigest(digest) {
		d.metrics.Load().DiskMisses.Add(1)
		return nil, false
	}
	path := d.path(digest)
	data, err := os.ReadFile(path)
	if err != nil {
		d.metrics.Load().DiskMisses.Add(1)
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort LRU touch
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[digest]; ok {
		e.mtime = now
		d.entries[digest] = e
	} else if info, err := os.Stat(path); err == nil {
		// Written by another process since our last scan; index it so the
		// size cap covers it from now on. The stat runs under the lock:
		// an eviction or quarantine of this digest since the read has
		// removed the file, and a file that is gone must not be indexed.
		d.entries[digest] = diskEntry{size: info.Size(), mtime: now}
		d.size += info.Size()
	}
	d.metrics.Load().DiskHits.Add(1)
	return data, true
}

// Put stores data under digest: the bytes land in a temp file first and
// are renamed into place, so concurrent readers see either the old entry
// or the new one, never a prefix. After the write the size cap is enforced
// by evicting oldest-mtime entries (the just-written entry is never the
// victim, so a single oversized result still lands).
func (d *Disk) Put(digest string, data []byte) error {
	if !validDigest(digest) {
		return fmt.Errorf("store: invalid digest %q", digest)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	if err := os.Rename(tmp.Name(), d.path(digest)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	if prev, ok := d.entries[digest]; ok {
		d.size -= prev.size
	}
	d.entries[digest] = diskEntry{size: int64(len(data)), mtime: time.Now()}
	d.size += int64(len(data))
	d.evictLocked(digest)
	return nil
}

// evictLocked removes oldest-mtime entries until the store fits its cap,
// sparing keep (the entry that triggered enforcement). Ties break on the
// digest so eviction order is deterministic under equal mtimes.
func (d *Disk) evictLocked(keep string) {
	for d.size > d.maxBytes && len(d.entries) > 1 {
		victim := ""
		var ve diskEntry
		for digest, e := range d.entries {
			if digest == keep {
				continue
			}
			if victim == "" || e.mtime.Before(ve.mtime) || (e.mtime.Equal(ve.mtime) && digest < victim) {
				victim, ve = digest, e
			}
		}
		if victim == "" {
			return
		}
		if err := os.Remove(d.path(victim)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			// The file is stuck (permissions?); dropping it from the index
			// anyway would let the directory grow without bound, so keep
			// accounting for it and stop evicting this round.
			return
		}
		d.size -= ve.size
		delete(d.entries, victim)
		d.metrics.Load().DiskEvictions.Add(1)
	}
}

// Quarantine moves a corrupt entry aside (dir/quarantine/<digest>.json) so
// it is served as a miss from now on but stays available for diagnosis.
// internal/run calls this when a stored entry fails to decode or fails its
// integrity check.
func (d *Disk) Quarantine(digest string) {
	if !validDigest(digest) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	src := d.path(digest)
	dst := filepath.Join(d.dir, quarantineDir, digest+entrySuffix)
	if err := os.Rename(src, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		os.Remove(src) // last resort: a corrupt entry must not keep serving
	}
	if e, ok := d.entries[digest]; ok {
		d.size -= e.size
		delete(d.entries, digest)
	}
	d.metrics.Load().Corrupt.Add(1)
}

// Len is the number of entries in this process's index.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// SizeBytes is the indexed total entry size.
func (d *Disk) SizeBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}
