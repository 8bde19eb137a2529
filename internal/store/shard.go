package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// entry is one record's index state.
type entry struct {
	lastAccess int64 // unix nanoseconds of the last Put or Get: the file's mtime
	size       int64 // record file size in bytes
}

// shard is one hash shard: a directory of record files. The directory is
// its own index — a record's size is its file size and its LRU stamp is its
// mtime — and the in-memory map mirrors it so Len, Bytes and eviction never
// touch the disk. Each shard has its own lock, so concurrent sweep
// write-through across shards never serialises on a store-wide mutex.
type shard struct {
	dir string

	mu    sync.Mutex
	index map[string]*entry
}

// open creates the shard directory if needed and builds the index from one
// listing: each <addr>.json entry costs one lstat for its size and mtime.
func (sh *shard) open() error {
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(sh.dir)
	if err != nil {
		return err
	}
	sh.index = make(map[string]*entry, len(entries))
	for _, de := range entries {
		name, ok := strings.CutSuffix(de.Name(), ".json")
		if de.IsDir() || !ok || len(name) != 16 {
			// A stale temp file (a crash between CreateTemp and rename)
			// has no other owner; clean it up once it is old enough that
			// no live process can still be about to rename it.
			if !de.IsDir() && strings.HasPrefix(de.Name(), ".") {
				if info, err := de.Info(); err == nil && time.Since(info.ModTime()) > time.Hour {
					os.Remove(filepath.Join(sh.dir, de.Name()))
				}
			}
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // vanished mid-listing: it was being removed anyway
		}
		sh.index[name] = &entry{lastAccess: info.ModTime().UnixNano(), size: info.Size()}
	}
	return nil
}

// recordPath is the record file for an address within this shard.
func (sh *shard) recordPath(addr string) string {
	return filepath.Join(sh.dir, addr+".json")
}

// install writes data as addr's record: the temp file is prepared and
// stamped with the store clock outside the lock, but the rename into place
// and the index registration happen under it — an eviction pass (which
// also holds sh.mu to remove) can therefore never delete a freshly
// installed record on the basis of a stale last-access snapshot taken
// before the write.
func (sh *shard) install(s *Store, addr string, data []byte, now int64) (err error) {
	tmp, err := os.CreateTemp(sh.dir, ".write-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name()) // after a rename there is nothing to remove
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	stamp := time.Unix(0, now)
	if err := os.Chtimes(tmp.Name(), stamp, stamp); err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := os.Rename(tmp.Name(), sh.recordPath(addr)); err != nil {
		return err
	}
	if old, ok := sh.index[addr]; ok {
		s.bytes.Add(int64(len(data)) - old.size)
	} else {
		s.live.Add(1)
		s.bytes.Add(int64(len(data)))
	}
	sh.index[addr] = &entry{lastAccess: now, size: int64(len(data))}
	return nil
}

// touch stamps a read for LRU — in memory and as the record's mtime, so the
// recency survives a restart and reaches other processes at their next
// Open — adopting records this process's index has never seen (written by
// another process sharing the directory).
func (sh *shard) touch(s *Store, addr string, now, size int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.index[addr]
	if !ok {
		// The record may be gone already: an eviction pass can remove it
		// between the caller's read and this adoption (both hold no lock
		// in between), and evict holds sh.mu — so a stat here is
		// race-free.
		if _, err := os.Stat(sh.recordPath(addr)); err != nil {
			return
		}
		s.live.Add(1)
		s.bytes.Add(size)
		e = &entry{size: size}
		sh.index[addr] = e
	}
	e.lastAccess = now
	// Best effort: a failed stamp leaves this process's LRU right and only
	// costs a later Open some recency.
	stamp := time.Unix(0, now)
	os.Chtimes(sh.recordPath(addr), stamp, stamp)
}

// forget drops an index entry whose record file has vanished (evicted or
// deleted by another process).
func (sh *shard) forget(s *Store, addr string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.index[addr]
	if !ok {
		return
	}
	// Re-check under the lock: a Put may have installed a fresh record
	// between the caller's failed read and this cleanup (install holds
	// sh.mu, so a stat here cannot race it) — that record must stay
	// indexed.
	if _, err := os.Stat(sh.recordPath(addr)); err == nil {
		return
	}
	delete(sh.index, addr)
	s.live.Add(-1)
	s.bytes.Add(-e.size)
}

// evict removes one record if its index entry still carries the last-access
// stamp the eviction pass snapshotted — a record touched or rewritten since
// the snapshot is spared. It reports whether the record was removed.
func (sh *shard) evict(s *Store, addr string, lastSeen int64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.index[addr]
	if !ok || e.lastAccess != lastSeen {
		return false
	}
	if err := os.Remove(sh.recordPath(addr)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.log.Warn("store: evict remove failed", "addr", addr, "err", err)
		return false
	}
	delete(sh.index, addr)
	s.live.Add(-1)
	s.bytes.Add(-e.size)
	return true
}
