package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// digestN fabricates a distinct valid (hex) digest for tests.
func digestN(n int) string { return fmt.Sprintf("%064x", n) }

func openTestDisk(t *testing.T, maxBytes int64) (*Disk, *Metrics) {
	t.Helper()
	m := &Metrics{}
	d, err := OpenDisk(filepath.Join(t.TempDir(), "store"), maxBytes, m)
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

func TestDiskPutGetRoundTrip(t *testing.T) {
	d, m := openTestDisk(t, 0)
	if _, ok := d.Get(digestN(1)); ok {
		t.Fatal("empty store reported a hit")
	}
	if got := m.DiskMisses.Load(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	want := []byte(`{"v":1,"hello":"world"}`)
	if err := d.Put(digestN(1), want); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(digestN(1))
	if !ok || string(got) != string(want) {
		t.Fatalf("Get = (%q, %t), want stored bytes", got, ok)
	}
	if hits := m.DiskHits.Load(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	d1, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(digestN(7), []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// A fresh process: reopen the same directory.
	d2, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Errorf("reopened Len = %d, want 1 (index rebuilt from disk)", d2.Len())
	}
	got, ok := d2.Get(digestN(7))
	if !ok || string(got) != "persisted" {
		t.Fatalf("reopened Get = (%q, %t), want persisted entry", got, ok)
	}
}

func TestDiskCrossProcessReadThrough(t *testing.T) {
	// Two Disk handles on one directory model the CLI pre-warming a
	// server's store: a write through one handle must be a hit through
	// the other, even though the second handle never indexed it.
	dir := filepath.Join(t.TempDir(), "store")
	a, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(digestN(3), []byte("warm")); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(digestN(3))
	if !ok || string(got) != "warm" {
		t.Fatalf("cross-handle Get = (%q, %t), want hit", got, ok)
	}
	if b.Len() != 1 {
		t.Errorf("read-through did not index the entry: Len = %d, want 1", b.Len())
	}
}

func TestDiskSizeCapEvictsOldestFirst(t *testing.T) {
	d, m := openTestDisk(t, 30) // three 10-byte entries fit exactly
	payload := []byte("0123456789")
	base := time.Now().Add(-time.Hour)
	for i := 1; i <= 3; i++ {
		if err := d.Put(digestN(i), payload); err != nil {
			t.Fatal(err)
		}
		// Pin distinct mtimes so eviction order is unambiguous.
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(d.path(digestN(i)), at, at); err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		e := d.entries[digestN(i)]
		e.mtime = at
		d.entries[digestN(i)] = e
		d.mu.Unlock()
	}
	// Touch entry 1 via Get: it becomes most recently used.
	if _, ok := d.Get(digestN(1)); !ok {
		t.Fatal("expected hit")
	}
	// A fourth entry overflows the cap; entry 2 (oldest mtime) must go.
	if err := d.Put(digestN(4), payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(digestN(2)); ok {
		t.Error("oldest entry still present; want evicted")
	}
	for _, n := range []int{1, 3, 4} {
		if _, ok := d.Get(digestN(n)); !ok {
			t.Errorf("entry %d evicted; want retained", n)
		}
	}
	if ev := m.DiskEvictions.Load(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestDiskOversizedEntryStillLands(t *testing.T) {
	d, _ := openTestDisk(t, 4)
	big := []byte("way past the cap")
	if err := d.Put(digestN(9), big); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(digestN(9)); !ok {
		t.Error("just-written oversized entry evicted; want retained until a newer Put")
	}
}

func TestDiskQuarantineCorruptEntry(t *testing.T) {
	d, m := openTestDisk(t, 0)
	if err := d.Put(digestN(5), []byte("soon to be garbage")); err != nil {
		t.Fatal(err)
	}
	d.Quarantine(digestN(5))
	if _, ok := d.Get(digestN(5)); ok {
		t.Error("quarantined entry still served")
	}
	if got := m.Corrupt.Load(); got != 1 {
		t.Errorf("corrupt = %d, want 1", got)
	}
	// The entry was moved aside, not deleted.
	q := filepath.Join(d.Dir(), quarantineDir, digestN(5)+entrySuffix)
	if _, err := os.Stat(q); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if d.Len() != 0 || d.SizeBytes() != 0 {
		t.Errorf("index after quarantine: len=%d size=%d, want 0/0", d.Len(), d.SizeBytes())
	}
}

func TestDiskRejectsTraversalDigests(t *testing.T) {
	d, _ := openTestDisk(t, 0)
	for _, bad := range []string{"", "../../etc/passwd", "ABCDEF", "a/b", strings.Repeat("a", 200)} {
		if err := d.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted; want rejected", bad)
		}
		if _, ok := d.Get(bad); ok {
			t.Errorf("Get(%q) hit; want miss", bad)
		}
	}
}

func TestDiskOpenFailsOnUnusableDir(t *testing.T) {
	// A path whose parent is a regular file cannot be created — the
	// deterministic stand-in for a read-only volume (euid 0 ignores
	// permission bits, so chmod-based read-only checks are unreliable in
	// CI containers).
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(filepath.Join(blocker, "store"), 0, nil); err == nil {
		t.Fatal("OpenDisk under a file succeeded; want error so callers degrade to memory-only")
	}
}

func TestDiskConcurrentReadersAndWriters(t *testing.T) {
	d, _ := openTestDisk(t, 1<<20)
	const (
		goroutines = 8
		rounds     = 50
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Half the keys are shared across goroutines so reads and
				// writes genuinely overlap on the same digest.
				key := digestN(i % 10)
				if g%2 == 0 {
					if err := d.Put(key, []byte(strings.Repeat("x", 64))); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				} else if data, ok := d.Get(key); ok && len(data) != 64 {
					t.Errorf("torn read: %d bytes", len(data))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDiskIndexMatchesFilesUnderRace races Get, Put (with eviction) and
// Quarantine on overlapping digests. Get reads outside the store lock, so
// a read can race the removal of its file; after every round the size
// index must still equal the entry files on disk. Run under -race.
func TestDiskIndexMatchesFilesUnderRace(t *testing.T) {
	d, _ := openTestDisk(t, 150) // a cap a few entries wide, so Puts evict
	const (
		rounds = 200
		keys   = 4
	)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					key := digestN((g + k) % keys)
					switch g {
					case 0:
						if err := d.Put(key, []byte(strings.Repeat("x", 20+(r+k)%40))); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
					case 1:
						d.Quarantine(key)
					default:
						d.Get(key)
					}
				}
			}(g)
		}
		wg.Wait()
		if files, bytes := entryFiles(t, d.Dir()); d.SizeBytes() != bytes || d.Len() != files {
			t.Fatalf("round %d: index holds %d entries, %d bytes; disk holds %d entries, %d bytes",
				r, d.Len(), d.SizeBytes(), files, bytes)
		}
	}
}

// entryFiles counts the entry files in dir and their total size.
func entryFiles(t *testing.T, dir string) (files int, size int64) {
	t.Helper()
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), entrySuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		files++
		size += info.Size()
	}
	return files, size
}
