package serve

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Cache is the content-addressed result store: an in-memory LRU tier with
// byte and entry caps over an optional checksummed on-disk tier. Keys are
// the hex job hashes computed by keyMaterial.hash, values are the exact
// response bytes the daemon serves — because every result is a pure
// function of its key material, a hit is byte-identical to recomputing.
//
// The disk tier is write-through: every Put lands in both tiers, a memory
// miss falls through to disk and promotes the entry back. Disk entries
// carry a SHA-256 header; a corrupt or truncated file is deleted and
// treated as a miss, so the worst a damaged cache directory can cause is
// one recomputation.
//
// Which keys are on disk, and in what recency order, is held in memory:
// the index is seeded once from the directory by NewCache and kept current
// by every disk put, hit and reject, so neither a put nor a miss lists or
// probes the directory. One daemon owns one cache directory; files another
// process adds are seen at the next start.
type Cache struct {
	mu         sync.Mutex
	maxBytes   int64
	maxEntries int
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element

	dir string // "" = memory-only

	// Disk index, guarded by dmu. dll holds keys, front = most recently
	// used; every indexed key has an entry file whose mtime is stamp-
	// ordered the same way, so the order survives a restart.
	dmu       sync.Mutex
	dll       *list.List
	ditems    map[string]*list.Element
	lastStamp int64 // newest mtime handed out (UnixNano)

	evictions       atomic.Uint64
	diskRejects     atomic.Uint64
	diskWriteErrors atomic.Uint64
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache returns a cache bounded by maxBytes and maxEntries (both must
// be positive) with an optional disk tier rooted at dir (created if
// missing; "" disables it). The same caps bound the disk tier's entry
// count. Opening a disk tier scans dir once: entries are indexed oldest
// mtime first, leftovers of a put cut short between write and rename are
// deleted, and entries beyond the cap are pruned.
func NewCache(dir string, maxBytes int64, maxEntries int) (*Cache, error) {
	if maxBytes <= 0 || maxEntries <= 0 {
		return nil, fmt.Errorf("serve: cache caps must be positive (bytes=%d entries=%d)", maxBytes, maxEntries)
	}
	c := &Cache{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		dir:        dir,
		dll:        list.New(),
		ditems:     make(map[string]*list.Element),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
		if err := c.seedDiskIndex(); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	return c, nil
}

// Get returns the cached bytes for key. A memory miss consults the disk
// tier; a valid disk entry is promoted back into memory.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()
	data, ok := c.diskGet(key)
	if !ok {
		return nil, false
	}
	c.put(key, data, false) // promote without rewriting the file
	return data, true
}

// Contains reports whether key is present in either tier without reading
// or promoting the entry (the disk check consults only the index; a
// missing or corrupt file is caught by the Get that follows).
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	c.mu.Unlock()
	if ok {
		return true
	}
	c.dmu.Lock()
	_, ok = c.ditems[key]
	c.dmu.Unlock()
	return ok
}

// Put stores the bytes under key in both tiers.
func (c *Cache) Put(key string, data []byte) {
	c.put(key, data, true)
}

func (c *Cache) put(key string, data []byte, writeDisk bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		// Same key means same content (content addressing); just refresh.
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	// An entry larger than the whole byte budget would evict everything
	// and still not fit; serve it uncached.
	if int64(len(data)) <= c.maxBytes {
		el := c.ll.PushFront(&cacheEntry{key: key, data: data})
		c.items[key] = el
		c.bytes += int64(len(data))
		for (c.bytes > c.maxBytes || c.ll.Len() > c.maxEntries) && c.ll.Len() > 1 {
			c.evictOldestLocked()
		}
	}
	c.mu.Unlock()
	if writeDisk {
		c.diskPut(key, data)
	}
}

func (c *Cache) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= int64(len(e.data))
	c.evictions.Add(1)
}

// Len returns the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the in-memory payload byte total.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns how many in-memory entries the caps pushed out.
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }

// DiskRejects returns how many on-disk entries failed validation and were
// discarded.
func (c *Cache) DiskRejects() uint64 { return c.diskRejects.Load() }

// DiskLen returns how many entries the disk tier indexes (0 when there is
// no disk tier).
func (c *Cache) DiskLen() int {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	return c.dll.Len()
}

// DiskWriteErrors returns how many puts failed to publish their disk entry
// (the entry was still served, and cached, in memory).
func (c *Cache) DiskWriteErrors() uint64 { return c.diskWriteErrors.Load() }

// Disk tier. Entry format: one header line
//
//	meshsimdcache1 <sha256 hex> <payload length>\n
//
// followed by the raw payload. The checksum makes torn writes, truncation
// and bit rot all collapse into "recompute".

const diskMagic = "meshsimdcache1"

// safeKey reports whether key is usable as a file name — the hex hashes
// the server produces always are; anything else stays memory-only.
func safeKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for _, r := range key {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			return false
		}
	}
	return true
}

const (
	entrySuffix = ".entry"
	tmpSuffix   = entrySuffix + ".tmp"
)

func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+entrySuffix)
}

// seedDiskIndex builds the disk index from one scan of the cache
// directory, oldest mtime first (ties by name), so the least-recently-used
// order of the previous process survives the restart.
func (c *Cache) seedDiskIndex() error {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	type aged struct {
		key string
		mod int64
	}
	var files []aged
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if key, ok := strings.CutSuffix(name, tmpSuffix); ok && safeKey(key) {
			// A put cut short between write and rename; never indexed. A
			// failed removal is retried at the next open.
			_ = os.Remove(filepath.Join(c.dir, name))
			continue
		}
		key, ok := strings.CutSuffix(name, entrySuffix)
		if !ok || !safeKey(key) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{key, info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].key < files[j].key
	})
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for _, f := range files {
		c.ditems[f.key] = c.dll.PushFront(f.key)
		c.lastStamp = max(c.lastStamp, f.mod)
	}
	c.pruneDiskLocked()
	return nil
}

func (c *Cache) diskPut(key string, data []byte) {
	if c.dir == "" || !safeKey(key) {
		return
	}
	sum := sha256.Sum256(data)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s %d\n", diskMagic, hex.EncodeToString(sum[:]), len(data))
	buf.Write(data)
	// Atomic publish: a reader (or a crash) never observes a half-written
	// entry without the checksum catching it, but rename makes even the
	// benign torn-file window impossible.
	path := c.diskPath(key)
	tmp := filepath.Join(c.dir, key+tmpSuffix)
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		_ = os.Remove(tmp) // a leftover is swept at the next open
		c.diskWriteErrors.Add(1)
		return
	}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if os.Rename(tmp, path) != nil {
		_ = os.Remove(tmp) // a leftover is swept at the next open
		c.diskWriteErrors.Add(1)
		return
	}
	if el, ok := c.ditems[key]; ok {
		c.dll.MoveToFront(el)
	} else {
		c.ditems[key] = c.dll.PushFront(key)
	}
	c.touchLocked(path)
	c.pruneDiskLocked()
}

// touchLocked stamps the entry file at path with an mtime newer than any
// stamp before it, so the mtime order of the files is the index's recency
// order even when the filesystem clock is coarser than the put rate.
func (c *Cache) touchLocked(path string) {
	c.lastStamp = max(time.Now().UnixNano(), c.lastStamp+1)
	t := time.Unix(0, c.lastStamp)
	// A failed stamp costs only recency accuracy at the next start.
	_ = os.Chtimes(path, t, t)
}

// pruneDiskLocked removes least-recently-used entries until the disk tier
// is within the entry cap.
func (c *Cache) pruneDiskLocked() {
	for c.dll.Len() > c.maxEntries {
		c.dropDiskLocked(c.dll.Back().Value.(string))
	}
}

// dropDiskLocked removes key from the index and its file from disk, so the
// two never disagree about an entry the cache has given up on.
func (c *Cache) dropDiskLocked(key string) {
	if el, ok := c.ditems[key]; ok {
		c.dll.Remove(el)
		delete(c.ditems, key)
	}
	// The file may already be gone; one that cannot be removed is seen,
	// and pruned or served, at the next open.
	_ = os.Remove(c.diskPath(key))
}

// diskGet reads an indexed entry. A key the index does not hold is a miss
// without touching the filesystem; an indexed file that is gone or fails
// its checksum is dropped and served as a miss.
func (c *Cache) diskGet(key string) ([]byte, bool) {
	c.dmu.Lock()
	_, ok := c.ditems[key]
	c.dmu.Unlock()
	if !ok {
		return nil, false
	}
	raw, err := os.ReadFile(c.diskPath(key))
	var data []byte
	valid := false
	if err == nil {
		if data, valid = decodeDiskEntry(raw); !valid {
			c.diskRejects.Add(1)
		}
	}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if !valid {
		c.dropDiskLocked(key)
		return nil, false
	}
	// Refresh the entry unless a concurrent put pruned it meanwhile. The
	// mtime touch keeps the order the next start seeds least-recently-read.
	if el, indexed := c.ditems[key]; indexed {
		c.dll.MoveToFront(el)
		c.touchLocked(c.diskPath(key))
	}
	return data, true
}

// decodeDiskEntry validates the header, length and checksum of one disk
// entry.
func decodeDiskEntry(raw []byte) ([]byte, bool) {
	rd := bufio.NewReader(bytes.NewReader(raw))
	header, err := rd.ReadString('\n')
	if err != nil {
		return nil, false
	}
	fields := strings.Fields(strings.TrimSuffix(header, "\n"))
	if len(fields) != 3 || fields[0] != diskMagic {
		return nil, false
	}
	wantSum, err := hex.DecodeString(fields[1])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, false
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil || wantLen < 0 {
		return nil, false
	}
	payload := raw[len(header):]
	if len(payload) != wantLen {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], wantSum) {
		return nil, false
	}
	return payload, true
}
