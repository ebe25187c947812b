package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testKey derives a distinct valid (hex) cache key from i.
func testKey(i int) string {
	sum := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
	return hex.EncodeToString(sum[:])
}

func TestCacheEntryCapEvictsLRU(t *testing.T) {
	c, err := NewCache("", 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Put(testKey(i), []byte{byte(i)})
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if _, ok := c.Get(testKey(0)); ok {
		t.Fatal("oldest entry survived the entry cap")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("entry %d evicted, want only the oldest gone", i)
		}
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
}

func TestCacheByteCapEvictsLRU(t *testing.T) {
	c, err := NewCache("", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(0), make([]byte, 60))
	c.Put(testKey(1), make([]byte, 30))
	// Touch 0 so 1 is the LRU victim.
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("entry 0 missing before overflow")
	}
	c.Put(testKey(2), make([]byte, 40))
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("LRU entry survived the byte cap")
	}
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("recently used entry was evicted instead of the LRU one")
	}
	if c.Bytes() > 100 {
		t.Fatalf("bytes = %d over the 100-byte cap", c.Bytes())
	}
}

func TestCacheOversizedEntryServedUncached(t *testing.T) {
	c, err := NewCache("", 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(0), []byte("small"))
	c.Put(testKey(1), make([]byte, 50)) // larger than the whole budget
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("oversized entry was cached")
	}
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("oversized put evicted the resident entry for nothing")
	}
}

func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"report":1}` + "\n")
	c1.Put(testKey(0), want)

	// A fresh cache over the same directory — a daemon restart — serves
	// the entry from disk.
	c2, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(testKey(0))
	if !ok {
		t.Fatal("disk entry not found after restart")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("disk round trip changed bytes: %q != %q", got, want)
	}
	// And the hit promoted it into memory.
	if c2.Len() != 1 {
		t.Fatalf("promoted len = %d, want 1", c2.Len())
	}
}

func TestCacheCorruptDiskEntryRejected(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"bit-flip":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"bad-magic": func(b []byte) []byte { return append([]byte("not-a-cache-entry\n"), b...) },
		"empty":     func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewCache(dir, 1<<20, 10)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey(7)
			c.Put(key, []byte("precious result bytes"))
			path := filepath.Join(dir, key+".entry")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			// A fresh cache (no memory copy) must reject the damaged entry…
			c2, err := NewCache(dir, 1<<20, 10)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Get(key); ok {
				t.Fatal("corrupt disk entry was served")
			}
			if c2.DiskRejects() != 1 {
				t.Fatalf("diskRejects = %d, want 1", c2.DiskRejects())
			}
			// …delete it…
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry file was not removed")
			}
			// …and a re-Put recovers as if it never existed.
			c2.Put(key, []byte("recomputed"))
			if got, ok := c2.Get(key); !ok || string(got) != "recomputed" {
				t.Fatalf("recompute after corruption: got %q ok=%v", got, ok)
			}
		})
	}
}

func TestCacheDiskPruneBoundsEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Put(testKey(i), []byte(fmt.Sprintf("entry %d", i)))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".entry" {
			n++
		}
	}
	if n > 3 {
		t.Fatalf("disk holds %d entries, cap is 3", n)
	}
}

// TestCacheDiskPruneEvictsLeastRecentlyRead pins the disk tier's eviction
// order: a disk hit refreshes the entry's mtime, so pruning drops the
// least-recently-read entry, not simply the least-recently-written one.
func TestCacheDiskPruneEvictsLeastRecentlyRead(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c1.Put(testKey(i), []byte{byte(i)})
	}
	// Backdate the entries with distinct mtimes, oldest first.
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, testKey(i)+".entry"), ts, ts); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh cache (no memory copy) reads entry 0 from disk; the hit
	// must move it out of the prune victim slot.
	c2, err := NewCache(dir, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(testKey(0)); !ok {
		t.Fatal("entry 0 missing from disk")
	}
	c2.Put(testKey(3), []byte{3}) // fourth entry triggers a prune

	if _, err := os.Stat(filepath.Join(dir, testKey(0)+".entry")); err != nil {
		t.Fatal("recently read entry was pruned")
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(1)+".entry")); !os.IsNotExist(err) {
		t.Fatal("least-recently-read entry survived the prune")
	}
}

func TestCacheRejectsUnsafeKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../../etc/passwd", "short", "UPPERCASEHEX00", ""} {
		c.Put(key, []byte("x"))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("unsafe key produced a disk file: %s", e.Name())
	}
}

// TestKeyFormatSeparatesOldEntries pins the key format bump: a job's key
// is not the key the same job had before the format field existed, so a
// disk tier written by an older daemon (whose run reports still carried
// diagnostics) is never served.
func TestKeyFormatSeparatesOldEntries(t *testing.T) {
	m := keyMaterial{Kind: "run", Fingerprint: "0123456789abcdef", SampleInterval: 100e6}
	old, err := json.Marshal(struct {
		Kind           string `json:"kind"`
		Fingerprint    string `json:"fingerprint"`
		SampleInterval int64  `json:"sample_interval,omitempty"`
	}{m.Kind, m.Fingerprint, int64(m.SampleInterval)})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(old)
	if m.hash() == hex.EncodeToString(sum[:]) {
		t.Fatal("current key equals the pre-format key")
	}
}

// entryFiles lists the keys of the .entry files in dir and fails the test
// on any leftover temp file.
func entryFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if key, ok := strings.CutSuffix(e.Name(), entrySuffix); ok {
			keys[key] = true
		} else {
			t.Fatalf("unexpected file in the cache directory: %s", e.Name())
		}
	}
	return keys
}

func TestCacheOpenSweepsOrphanTempFiles(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("valid entry")
	c1.Put(testKey(0), want)
	// A put killed between write and rename leaves its temp file behind.
	orphan := filepath.Join(dir, testKey(1)+tmpSuffix)
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Checkpoint directories share the cache directory and are not touched.
	if err := os.Mkdir(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived the reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs")); err != nil {
		t.Fatal("reopen removed the checkpoint directory")
	}
	if c2.DiskLen() != 1 || !c2.Contains(testKey(0)) || c2.Contains(testKey(1)) {
		t.Fatalf("reopened index holds %d entries, want only the valid one", c2.DiskLen())
	}
	if got, ok := c2.Get(testKey(0)); !ok || !bytes.Equal(got, want) {
		t.Fatalf("valid entry after reopen: got %q ok=%v", got, ok)
	}
}

// TestCacheDiskWriteErrorServesFromMemory replaces the cache directory
// with a regular file under an open cache (unlike a chmod, this also
// defeats root): the put still serves from memory, leaves the disk index
// unchanged and counts one write error.
func TestCacheDiskWriteErrorServesFromMemory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []byte("result")
	c.Put(testKey(0), want)
	if got, ok := c.Get(testKey(0)); !ok || !bytes.Equal(got, want) {
		t.Fatalf("memory tier after a failed disk write: got %q ok=%v", got, ok)
	}
	if c.DiskLen() != 0 {
		t.Fatalf("disk index holds %d entries after a failed write", c.DiskLen())
	}
	if c.DiskWriteErrors() != 1 {
		t.Fatalf("disk write errors = %d, want 1", c.DiskWriteErrors())
	}
}

// TestCacheIndexOwnsDiskLookups pins what the index decides: a file the
// index does not hold is not read until the next start, and an indexed
// file deleted behind the cache's back is a miss that leaves the index.
func TestCacheIndexOwnsDiskLookups(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(0), []byte("zero"))

	other, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	other.Put(testKey(1), []byte("one")) // added from outside c
	if c.Contains(testKey(1)) {
		t.Fatal("an entry added by another cache was indexed before a restart")
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("an entry added by another cache was served before a restart")
	}

	fresh, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, testKey(0)+entrySuffix)); err != nil {
		t.Fatal(err)
	}
	if !fresh.Contains(testKey(0)) {
		t.Fatal("Contains went to the filesystem instead of the index")
	}
	if _, ok := fresh.Get(testKey(0)); ok {
		t.Fatal("a deleted entry was served")
	}
	if fresh.Contains(testKey(0)) || fresh.DiskLen() != 1 {
		t.Fatalf("deleted entry still indexed (disk len %d, want 1)", fresh.DiskLen())
	}
	if got, ok := fresh.Get(testKey(1)); !ok || string(got) != "one" {
		t.Fatalf("entry seen at the restart: got %q ok=%v", got, ok)
	}
}

// TestCacheOpenPrunesToCap pins that a reopen under a smaller entry cap
// keeps the most recently used entries.
func TestCacheOpenPrunesToCap(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c1.Put(testKey(i), []byte{byte(i)})
	}
	c1.Get(testKey(0)) // memory hit: the disk order is write order
	c2, err := NewCache(dir, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	if c2.DiskLen() != 2 || len(files) != 2 || !files[testKey(3)] || !files[testKey(4)] {
		t.Fatalf("reopen under cap 2 kept %d files %v, want the two newest", len(files), files)
	}
}

// cacheModel is the reference the disk index is checked against: two
// recency lists (front = most recently used) with the cache's rules, plus
// what the test did to entry files behind the cache's back.
type cacheModel struct {
	cap       int
	mem, disk []string
	corrupt   map[string]bool // file damaged, still indexed
	gone      map[string]bool // file deleted, still indexed
	rejects   uint64          // since the last reopen, as the cache counts them
}

// touch moves k to the front of list (adding it if absent) and returns
// the list with its least-recently-used entries beyond the cap removed,
// and those victims.
func (m *cacheModel) touch(list []string, k string) ([]string, []string) {
	list = slices.DeleteFunc(list, func(x string) bool { return x == k })
	list = append([]string{k}, list...)
	if len(list) <= m.cap {
		return list, nil
	}
	return list[:m.cap], list[m.cap:]
}

func (m *cacheModel) dropDisk(k string) {
	m.disk = slices.DeleteFunc(m.disk, func(x string) bool { return x == k })
	delete(m.corrupt, k)
	delete(m.gone, k)
}

// TestCacheDiskIndexModel runs random sequences of puts, gets, contains,
// corruptions, deletions and reopens against a cache and cacheModel, and
// after every step compares the entry files on disk, the index size and
// every answer. Values are a fixed function of their key, as they are
// under content addressing, so a Get may only ever return that value.
func TestCacheDiskIndexModel(t *testing.T) {
	const capN, nKeys, steps = 4, 9, 250
	value := func(k string) []byte { return []byte("report for " + k + strings.Repeat("!", len(k)%7)) }
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = testKey(i)
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		c, err := NewCache(dir, 1<<20, capN)
		if err != nil {
			t.Fatal(err)
		}
		m := &cacheModel{cap: capN, corrupt: map[string]bool{}, gone: map[string]bool{}}
		for step := 0; step < steps; step++ {
			k := keys[rng.Intn(nKeys)]
			path := filepath.Join(dir, k+entrySuffix)
			var op string
			switch r := rng.Intn(20); {
			case r < 7:
				op = "put"
				c.Put(k, value(k))
				if slices.Contains(m.mem, k) {
					m.mem, _ = m.touch(m.mem, k)
					break
				}
				m.mem, _ = m.touch(m.mem, k)
				var victims []string
				m.disk, victims = m.touch(m.disk, k)
				delete(m.corrupt, k)
				delete(m.gone, k)
				for _, v := range victims {
					m.dropDisk(v)
					if _, err := os.Stat(filepath.Join(dir, v+entrySuffix)); !os.IsNotExist(err) {
						t.Fatalf("seed %d step %d: prune kept the model's least-recently-used key", seed, step)
					}
				}
			case r < 14:
				op = "get"
				got, ok := c.Get(k)
				want := false
				switch {
				case slices.Contains(m.mem, k):
					m.mem, _ = m.touch(m.mem, k)
					want = true
				case slices.Contains(m.disk, k) && (m.corrupt[k] || m.gone[k]):
					if !m.gone[k] {
						m.rejects++ // a file that fails its checksum
					}
					m.dropDisk(k)
				case slices.Contains(m.disk, k):
					m.disk, _ = m.touch(m.disk, k)
					m.mem, _ = m.touch(m.mem, k)
					want = true
				}
				if ok != want {
					t.Fatalf("seed %d step %d: Get hit=%v, model says %v", seed, step, ok, want)
				}
				if ok && !bytes.Equal(got, value(k)) {
					t.Fatalf("seed %d step %d: Get returned %q, not the bytes put", seed, step, got)
				}
			case r < 16:
				op = "contains"
				if got, want := c.Contains(k), slices.Contains(m.mem, k) || slices.Contains(m.disk, k); got != want {
					t.Fatalf("seed %d step %d: Contains=%v, model says %v", seed, step, got, want)
				}
			case r < 17:
				op = "corrupt"
				info, err := os.Stat(path)
				if err != nil {
					break // nothing on disk to damage
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(raw) > 0 {
					raw = raw[:len(raw)-1] // truncation; repeating it stays corrupt
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				// Bit rot does not refresh the mtime the next start seeds from.
				if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
					t.Fatal(err)
				}
				m.corrupt[k] = true
			case r < 18:
				op = "delete"
				if os.Remove(path) == nil {
					m.gone[k] = true
				}
			default:
				op = "reopen"
				if c, err = NewCache(dir, 1<<20, capN); err != nil {
					t.Fatal(err)
				}
				m.mem, m.rejects = nil, 0
				m.disk = slices.DeleteFunc(m.disk, func(x string) bool { return m.gone[x] })
				clear(m.gone)
			}

			files := entryFiles(t, dir)
			if len(files) > capN {
				t.Fatalf("seed %d step %d (%s): %d entry files, cap %d", seed, step, op, len(files), capN)
			}
			for _, x := range m.disk {
				if !m.gone[x] && !files[x] {
					t.Fatalf("seed %d step %d (%s): model entry %s has no file", seed, step, op, x[:8])
				}
				delete(files, x)
			}
			for x := range files {
				if !m.gone[x] {
					t.Fatalf("seed %d step %d (%s): file %s is not in the model", seed, step, op, x[:8])
				}
			}
			if c.DiskLen() != len(m.disk) || c.Len() != len(m.mem) || c.DiskRejects() != m.rejects {
				t.Fatalf("seed %d step %d (%s): disk/mem len %d/%d rejects %d, model %d/%d rejects %d", seed, step, op,
					c.DiskLen(), c.Len(), c.DiskRejects(), len(m.disk), len(m.mem), m.rejects)
			}
		}
	}
}

// TestCacheConcurrentDiskIndex drives one disk-backed cache from several
// goroutines at once: every hit must carry its key's bytes, and once they
// finish the index and the entry files must agree, within the cap.
func TestCacheConcurrentDiskIndex(t *testing.T) {
	const capN, nKeys, workers, ops = 5, 12, 4, 300
	dir := t.TempDir()
	c, err := NewCache(dir, 1<<20, capN)
	if err != nil {
		t.Fatal(err)
	}
	value := func(k int) []byte { return []byte("result " + strconv.Itoa(k)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := rng.Intn(nKeys)
				switch rng.Intn(3) {
				case 0:
					c.Put(testKey(k), value(k))
				case 1:
					if got, ok := c.Get(testKey(k)); ok && !bytes.Equal(got, value(k)) {
						t.Errorf("Get(%d) = %q, want %q", k, got, value(k))
					}
				default:
					c.Contains(testKey(k))
				}
			}
		}(int64(w))
	}
	wg.Wait()
	files := entryFiles(t, dir)
	if len(files) > capN || len(files) != c.DiskLen() {
		t.Fatalf("%d entry files, %d indexed, cap %d", len(files), c.DiskLen(), capN)
	}
	for k := range files {
		if _, ok := c.ditems[k]; !ok {
			t.Fatalf("entry file %s is not indexed", k[:8])
		}
	}
}

// BenchmarkCachePutFullDisk times one Put of a new key into a cache whose
// disk tier already holds the daemon's default cap of 1024 entries, so
// every put also prunes one.
func BenchmarkCachePutFullDisk(b *testing.B) {
	const capN = 1024
	c, err := NewCache(b.TempDir(), 256<<20, capN)
	if err != nil {
		b.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 2400)
	key := func(i int) string {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		return hex.EncodeToString(sum[:])
	}
	for i := 0; i < capN; i++ {
		c.Put(key(i), body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(key(capN+i), body)
	}
	b.StopTimer()
	if c.DiskLen() != capN {
		b.Fatalf("disk index holds %d entries, want %d", c.DiskLen(), capN)
	}
}
