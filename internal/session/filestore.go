package session

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copycat/internal/obs"
	"copycat/internal/persist"
)

// FileStore is the durable snapshot tier: one file per snapshot under a
// root directory, written atomically (temp file + rename) so a crash
// mid-save never leaves a half-written snapshot where a good one was.
// Payloads are gzip-framed (persist.Compress) and wrapped in a small
// binary header carrying a magic, the raw and stored lengths, and a
// CRC32 of the stored payload — Load verifies all of it before handing
// bytes to the restore path. A file that fails any check is moved into
// a quarantine/ subdirectory (preserved for forensics, out of the hot
// path) instead of erroring forever on every Acquire.
//
// Legacy compatibility: a snapshot file holding raw JSON (no header —
// the MemStore-era format, or a snapshot dropped in by hand from
// System.SaveSession) loads as-is.
//
// A manifest.json sidecar in the root records per-snapshot metadata
// (tenant, creation time) so a manager rebuilt over the directory
// recovers sessions under their original identity. The *.snap files
// are the source of truth: a manifest lost to a crash costs only the
// tenant labels, never the snapshots.
type FileStore struct {
	root string

	// QuarantineKeep caps how many files are retained under
	// quarantine/; the oldest beyond the cap are deleted. Quarantined
	// snapshots are forensic evidence, not data the system needs, so
	// the directory must not grow without bound. Zero means
	// DefaultQuarantineKeep; set before first use.
	QuarantineKeep int

	mu    sync.Mutex
	sizes map[string]fileSizes    // id → raw/stored byte sizes
	meta  map[string]SnapshotMeta // id → manifest record
	// stream receives a lifecycle event for every quarantined snapshot
	// (a flight-recorder trigger); a session manager sets it to the
	// host stream.
	stream *obs.Stream

	loadErrors  atomic.Int64
	quarantined atomic.Int64
	gcRemoved   atomic.Int64 // files deleted by Delete, reopen GC, and quarantine pruning
	quarCount   atomic.Int64 // files currently under quarantine/
}

type fileSizes struct {
	raw    int64 // uncompressed snapshot bytes (equals stored for legacy files)
	stored int64 // bytes on disk, header included
}

// Snapshot file format (all integers big-endian):
//
//	[0:4]   magic "SCPS"
//	[4]     header version (1)
//	[5:9]   rawLen    — uncompressed snapshot length
//	[9:13]  payloadLen — framed payload length
//	[13:17] CRC32 (IEEE) of the framed payload
//	[17:]   framed payload (persist.Compress output)
const (
	snapMagic     = "SCPS"
	snapHeaderLen = 17
	snapVersion   = 1
	snapSuffix    = ".snap"
	quarantineDir = "quarantine"
	manifestName  = "manifest.json"
)

// ErrCorruptSnapshot reports a snapshot that failed the magic, length,
// CRC, or decompression checks on Load and was moved to quarantine.
var ErrCorruptSnapshot = errors.New("session: corrupt snapshot (quarantined)")

// DefaultQuarantineKeep is the quarantine retention cap applied when
// FileStore.QuarantineKeep is zero.
const DefaultQuarantineKeep = 32

// NewFileStore opens (creating if needed) a durable snapshot store
// rooted at dir. Existing snapshots are indexed and the manifest (if
// any) is loaded, so the store — and a Manager built over it — resumes
// exactly where the previous process stopped.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("session: filestore: %w", err)
	}
	s := &FileStore{
		root:  dir,
		sizes: map[string]fileSizes{},
		meta:  map[string]SnapshotMeta{},
	}
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		// A damaged manifest only costs metadata; ignore and rebuild.
		json.Unmarshal(data, &s.meta)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("session: filestore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if !strings.HasSuffix(name, snapSuffix) {
			// Orphaned temp files (snapshot or manifest writes cut short
			// by a crash before the rename) are debris; sweep them.
			if strings.Contains(name, ".tmp-") {
				if os.Remove(filepath.Join(dir, name)) == nil {
					s.gcRemoved.Add(1)
				}
			}
			continue
		}
		id := strings.TrimSuffix(name, snapSuffix)
		if s.meta[id].Destroyed {
			// Finish a Delete interrupted between the tombstone flush and
			// the file removal: the session was destroyed, not evicted.
			if os.Remove(filepath.Join(dir, name)) == nil {
				s.gcRemoved.Add(1)
			}
			continue
		}
		s.sizes[id] = s.scanSizes(filepath.Join(dir, name))
	}
	// Drop manifest entries whose snapshot is gone (deleted,
	// quarantined, or tombstone-collected under a previous process).
	pruned := false
	for id := range s.meta {
		if _, ok := s.sizes[id]; !ok {
			delete(s.meta, id)
			pruned = true
		}
	}
	if pruned {
		s.mu.Lock()
		s.flushManifestLocked()
		s.mu.Unlock()
	}
	s.initQuarantine()
	return s, nil
}

// initQuarantine counts the files already under quarantine/ and applies
// the retention cap, so a store reopened over an old directory starts
// with an accurate gauge and a bounded footprint.
func (s *FileStore) initQuarantine() {
	entries, err := os.ReadDir(filepath.Join(s.root, quarantineDir))
	if err != nil {
		return // no quarantine directory yet
	}
	n := int64(0)
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	s.quarCount.Store(n)
	s.pruneQuarantine()
}

// pruneQuarantine deletes the oldest quarantined files beyond the
// retention cap. Best-effort: a file that cannot be listed or removed
// is skipped and retried on the next prune.
func (s *FileStore) pruneQuarantine() {
	keep := s.QuarantineKeep
	if keep <= 0 {
		keep = DefaultQuarantineKeep
	}
	if s.quarCount.Load() <= int64(keep) {
		return
	}
	qdir := filepath.Join(s.root, quarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil {
		return
	}
	type qfile struct {
		name string
		mod  time.Time
	}
	files := make([]qfile, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, qfile{e.Name(), fi.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for len(files) > keep {
		if os.Remove(filepath.Join(qdir, files[0].name)) == nil {
			s.gcRemoved.Add(1)
		}
		files = files[1:]
	}
	s.quarCount.Store(int64(len(files)))
}

// Dir returns the store's root directory.
func (s *FileStore) Dir() string { return s.root }

// scanSizes reads just enough of a snapshot file to size it for the
// stats gauges; corruption is left for Load to detect and quarantine.
func (s *FileStore) scanSizes(path string) fileSizes {
	fi, err := os.Stat(path)
	if err != nil {
		return fileSizes{}
	}
	sz := fileSizes{raw: fi.Size(), stored: fi.Size()}
	f, err := os.Open(path)
	if err != nil {
		return sz
	}
	defer f.Close()
	var hdr [snapHeaderLen]byte
	if n, _ := f.Read(hdr[:]); n == snapHeaderLen && string(hdr[:4]) == snapMagic {
		sz.raw = int64(binary.BigEndian.Uint32(hdr[5:9]))
	}
	return sz
}

// validID rejects session IDs that could escape the root directory.
func validID(id string) error {
	if id == "" || id == "." || id == ".." || strings.ContainsAny(id, "/\\") {
		return fmt.Errorf("session: filestore: invalid snapshot id %q", id)
	}
	return nil
}

func (s *FileStore) path(id string) string {
	return filepath.Join(s.root, id+snapSuffix)
}

// Save implements Store: frame, header, temp-write, fsync, rename.
func (s *FileStore) Save(id string, data []byte) error {
	if err := validID(id); err != nil {
		return err
	}
	payload := persist.Compress(data)
	buf := make([]byte, snapHeaderLen+len(payload))
	copy(buf[:4], snapMagic)
	buf[4] = snapVersion
	binary.BigEndian.PutUint32(buf[5:9], uint32(len(data)))
	binary.BigEndian.PutUint32(buf[9:13], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[13:17], crc32.ChecksumIEEE(payload))
	copy(buf[snapHeaderLen:], payload)

	tmp, err := os.CreateTemp(s.root, id+".tmp-*")
	if err != nil {
		return fmt.Errorf("session: filestore save %s: %w", id, err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("session: filestore save %s: %w", id, err)
	}
	if _, err := tmp.Write(buf); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("session: filestore save %s: %w", id, err)
	}
	if err := os.Rename(tmpName, s.path(id)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("session: filestore save %s: %w", id, err)
	}
	s.mu.Lock()
	s.sizes[id] = fileSizes{raw: int64(len(data)), stored: int64(len(buf))}
	s.flushManifestLocked()
	s.mu.Unlock()
	return nil
}

// Load implements Store. Any integrity failure quarantines the file
// and returns ErrCorruptSnapshot; the next Load for that id reports
// "no snapshot" cleanly instead of tripping over the same bytes again.
func (s *FileStore) Load(id string) ([]byte, bool, error) {
	if err := validID(id); err != nil {
		return nil, false, err
	}
	raw, err := os.ReadFile(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		s.loadErrors.Add(1)
		return nil, false, fmt.Errorf("session: filestore load %s: %w", id, err)
	}
	if len(raw) < len(snapMagic) || string(raw[:4]) != snapMagic {
		// No header: either a legacy raw-JSON snapshot or garbage.
		if trimmed := bytes.TrimLeft(raw, " \t\r\n"); len(trimmed) > 0 && (trimmed[0] == '{' || trimmed[0] == '[') {
			return raw, true, nil
		}
		return nil, false, s.quarantine(id, "unrecognized header")
	}
	if len(raw) < snapHeaderLen || raw[4] != snapVersion {
		return nil, false, s.quarantine(id, "truncated or unknown-version header")
	}
	rawLen := binary.BigEndian.Uint32(raw[5:9])
	payloadLen := binary.BigEndian.Uint32(raw[9:13])
	sum := binary.BigEndian.Uint32(raw[13:17])
	payload := raw[snapHeaderLen:]
	if uint32(len(payload)) != payloadLen {
		return nil, false, s.quarantine(id, fmt.Sprintf("payload length %d, header says %d", len(payload), payloadLen))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, false, s.quarantine(id, "CRC mismatch")
	}
	data, err := persist.Decompress(payload)
	if err != nil {
		return nil, false, s.quarantine(id, err.Error())
	}
	if uint32(len(data)) != rawLen {
		return nil, false, s.quarantine(id, fmt.Sprintf("inflated to %d bytes, header says %d", len(data), rawLen))
	}
	return data, true, nil
}

// quarantine moves a failed snapshot aside and drops it from the
// index; the data is preserved under quarantine/ for forensics.
func (s *FileStore) quarantine(id, reason string) error {
	s.loadErrors.Add(1)
	qdir := filepath.Join(s.root, quarantineDir)
	moved := ""
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		dst := filepath.Join(qdir, id+snapSuffix)
		if err := os.Rename(s.path(id), dst); err == nil {
			moved = dst
			s.quarantined.Add(1)
			s.quarCount.Add(1)
		}
	}
	if moved == "" {
		// Could not move it; delete so the store doesn't stay poisoned.
		os.Remove(s.path(id))
	}
	s.mu.Lock()
	delete(s.sizes, id)
	delete(s.meta, id)
	s.flushManifestLocked()
	stream := s.stream
	s.mu.Unlock()
	s.pruneQuarantine()
	stream.Publish(obs.Event{Kind: obs.KindLifecycle, Name: obs.EventQuarantine, Session: id, Detail: reason})
	if moved != "" {
		return fmt.Errorf("%w: %s: %s (moved to %s)", ErrCorruptSnapshot, id, reason, moved)
	}
	return fmt.Errorf("%w: %s: %s", ErrCorruptSnapshot, id, reason)
}

// setStream points the store's quarantine events at s.
func (s *FileStore) setStream(stream *obs.Stream) {
	s.mu.Lock()
	s.stream = stream
	s.mu.Unlock()
}

// Delete implements Store. The removal is crash-safe: the manifest
// entry is tombstoned (Destroyed) and flushed before the file goes, so
// a crash between the two steps leaves a marker the next NewFileStore
// finishes collecting instead of reviving a destroyed session's
// snapshot. Only then is the entry dropped from the manifest entirely.
func (s *FileStore) Delete(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	s.mu.Lock()
	m := s.meta[id]
	m.Destroyed = true
	s.meta[id] = m
	s.flushManifestLocked()
	s.mu.Unlock()
	switch err := os.Remove(s.path(id)); {
	case err == nil:
		s.gcRemoved.Add(1)
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("session: filestore delete %s: %w", id, err)
	}
	s.mu.Lock()
	delete(s.sizes, id)
	delete(s.meta, id)
	s.flushManifestLocked()
	s.mu.Unlock()
	return nil
}

// List implements ListingStore: every snapshot ID currently on disk.
func (s *FileStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.sizes))
	for id := range s.sizes {
		ids = append(ids, id)
	}
	return ids, nil
}

// SetMeta implements MetaStore; the record is persisted in the
// manifest on the next flush (Save/Delete/SetMeta all flush).
func (s *FileStore) SetMeta(id string, meta SnapshotMeta) {
	s.mu.Lock()
	s.meta[id] = meta
	s.flushManifestLocked()
	s.mu.Unlock()
}

// Meta implements MetaStore.
func (s *FileStore) Meta(id string) (SnapshotMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.meta[id]
	return m, ok
}

// Len reports the number of stored snapshots.
func (s *FileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sizes)
}

// Stats implements StatsStore.
func (s *FileStore) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{Snapshots: len(s.sizes)}
	for _, sz := range s.sizes {
		st.RawBytes += sz.raw
		st.DiskBytes += sz.stored
	}
	s.mu.Unlock()
	st.LoadErrors = s.loadErrors.Load()
	st.Quarantined = s.quarantined.Load()
	st.GCRemoved = s.gcRemoved.Load()
	st.QuarantineFiles = s.quarCount.Load()
	return st
}

// flushManifestLocked rewrites the manifest atomically; the caller
// holds s.mu. Manifest loss is tolerable (see NewFileStore), so write
// failures are swallowed rather than failing the snapshot save.
func (s *FileStore) flushManifestLocked() {
	data, err := json.MarshalIndent(s.meta, "", " ")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.root, manifestName+".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err == nil && tmp.Close() == nil {
		os.Rename(name, filepath.Join(s.root, manifestName))
		return
	}
	tmp.Close()
	os.Remove(name)
}
