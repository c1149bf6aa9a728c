package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// FormatVersion is the on-disk layout version of a Disk store. Bump it
// whenever the manifest, the object envelope, or the directory layout
// changes shape; a store written by any other format version is rejected
// at Open, like a foreign engine's. Version 2 replaced the per-object JSON
// envelope with the binary one in envelope.go.
const FormatVersion = 2

// manifestName is the store manifest at the root of a Disk store's
// directory: the fence that keeps two engines whose results are not
// interchangeable from silently sharing one result namespace.
const manifestName = "store.json"

// objectsDir holds the content-addressed entries, sharded by the first
// two hex digits of each key's SHA-256 so no single directory grows to
// millions of files.
const objectsDir = "objects"

// manifest is the store's self-description. Engine carries the same
// version string shard artifacts are fenced by (flit.EngineVersion): two
// processes may share a store only if they would compute bit-identical
// results for every key.
type manifest struct {
	Version int    `json:"store_version"`
	Engine  string `json:"engine"`
}

// Disk is the on-disk content-addressed Store backend:
//
//	DIR/store.json            manifest: layout version + engine fence
//	DIR/objects/ab/<sha256>   one envelope per key, ab = sum[:2]
//
// Writes are atomic (temp file + fsync + rename), so concurrent Puts —
// from many goroutines or many processes sharing DIR — race only on which
// identical bytes land last. Reads treat anything unprovable as a miss:
// a truncated envelope, a payload whose checksum disagrees, a key or
// engine mismatch. The next Put of that key overwrites the damage, so a
// corrupt entry heals on the first recomputation that touches it.
type Disk struct {
	dir    string
	engine string
	// corrupt counts Get calls that found a file but could not trust it —
	// the observability hook distinguishing "cold" from "rotting".
	corrupt atomic.Int64
}

// Open opens (creating if absent) the store rooted at dir for an engine
// version. A directory already claimed by a different engine or layout
// version is rejected — replaying a foreign engine's results as local
// computations would silently break the byte-identity guarantee, exactly
// like merging a foreign artifact. A directory whose manifest exists but
// does not parse is also rejected: it may be someone else's data, and a
// store that cannot prove ownership must not write into it.
func Open(dir, engine string) (*Disk, error) {
	if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	switch {
	case os.IsNotExist(err):
		m := manifest{Version: FormatVersion, Engine: engine}
		buf, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		if err := WriteFileAtomic(mpath, buf); err != nil {
			return nil, fmt.Errorf("store: writing manifest: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	default:
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("store: %s has an unreadable manifest (%v) — refusing to treat it as a run store", dir, err)
		}
		if m.Version != FormatVersion {
			return nil, fmt.Errorf("store: %s uses layout v%d, this build reads v%d", dir, m.Version, FormatVersion)
		}
		if m.Engine != engine {
			return nil, fmt.Errorf("store: %s was written by engine %q, this build is %q: results are not interchangeable",
				dir, m.Engine, engine)
		}
	}
	return &Disk{dir: dir, engine: engine}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// Engine returns the engine version the store is fenced to.
func (d *Disk) Engine() string { return d.engine }

// objectPath maps a content address to its file.
func (d *Disk) objectPath(hash string) string {
	return filepath.Join(d.dir, objectsDir, hash[:2], hash)
}

// path maps a key to its content-addressed file.
func (d *Disk) path(key string) string { return d.objectPath(keyHash([]byte(key))) }

// Get reads the entry stored under key. Every failure mode — no file, a
// file that does not decode as one complete envelope of this engine, a
// payload checksum mismatch, a key mismatch — is a miss; the ones that
// found a file are additionally counted as corrupt.
func (d *Disk) Get(key string) ([]byte, bool) {
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false
	}
	e, err := decodeEnvelope(raw, d.engine)
	if err != nil || string(e.Key) != key {
		d.corrupt.Add(1)
		return nil, false
	}
	return e.Data, true
}

// object returns the file at a content address when it verifies as this
// store's envelope for a key with that address — the bytes the server
// answers a GET with, verbatim.
func (d *Disk) object(hash string) ([]byte, bool) {
	raw, err := os.ReadFile(d.objectPath(hash))
	if err != nil {
		return nil, false
	}
	if e, err := decodeEnvelope(raw, d.engine); err != nil || keyHash(e.Key) != hash {
		d.corrupt.Add(1)
		return nil, false
	}
	return raw, true
}

// Put atomically stores data under key. The entry file appears complete
// or not at all; a crash mid-Put leaves the previous state readable.
func (d *Disk) Put(key string, data []byte) error {
	return d.writeObject(keyHash([]byte(key)), encodeEnvelope(d.engine, key, data), data)
}

// writeObject atomically writes raw, an envelope carrying payload, at a
// content address. The caller vouches that raw decodes for this engine
// and that its key hashes to hash. Payloads are the callers' JSON
// records; anything else is a caller bug, refused here so it is never
// replayed as a hit.
func (d *Disk) writeObject(hash string, raw, payload []byte) error {
	if !json.Valid(payload) {
		return errors.New("store: payload is not JSON")
	}
	path := d.objectPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return WriteFileAtomic(path, raw)
}

// CorruptReads reports how many Get calls found an entry file they could
// not trust since this handle was opened.
func (d *Disk) CorruptReads() int64 { return d.corrupt.Load() }

// Stats is a walk of the store's object tree: what `flit store stats`
// prints. Corrupt counts files that do not parse and verify as this
// store's entries (they serve every Get as a miss and are reclaimed by
// GC or overwritten by the next Put of their key).
type Stats struct {
	Engine  string
	Entries int
	Bytes   int64
	Corrupt int
}

// Stats scans the store and reports entry count, payload-file bytes, and
// how many files are corrupt.
func (d *Disk) Stats() (Stats, error) {
	st := Stats{Engine: d.engine}
	files, err := d.scan()
	if err != nil {
		return st, err
	}
	for _, f := range files {
		st.Bytes += f.size
		if f.ok {
			st.Entries++
		} else {
			st.Corrupt++
		}
	}
	return st, nil
}

// GCResult reports one garbage-collection pass.
type GCResult struct {
	// Kept is how many valid entries survive.
	Kept int
	// Pruned are the removed files, oldest first (full paths); bytes is
	// their total size. With dry-run GC the files still exist.
	Pruned      []string
	PrunedBytes int64
	// Corrupt is how many of the pruned files were corrupt rather than
	// merely superseded by the age policy.
	Corrupt int
}

// GC prunes the store down to the given bounds: corrupt files first (they
// can never serve a hit), then the oldest valid entries — ordered by file
// modification time with the path as a deterministic tiebreaker, the same
// discipline artifact GC uses — until at most maxEntries entries and
// maxBytes bytes remain (either bound <= 0 is unlimited). With apply
// false the pass only plans; nothing is deleted.
func (d *Disk) GC(maxEntries int, maxBytes int64, apply bool) (*GCResult, error) {
	files, err := d.scan()
	if err != nil {
		return nil, err
	}
	res := &GCResult{}
	var live []objFile
	var bytes int64
	for _, f := range files {
		if !f.ok {
			res.Pruned = append(res.Pruned, f.path)
			res.PrunedBytes += f.size
			res.Corrupt++
			continue
		}
		live = append(live, f)
		bytes += f.size
	}
	// Oldest first; mtime ties break on path so two planning passes over
	// the same tree always prune the same files.
	sort.Slice(live, func(i, j int) bool {
		if !live[i].mod.Equal(live[j].mod) {
			return live[i].mod.Before(live[j].mod)
		}
		return live[i].path < live[j].path
	})
	drop := 0
	for drop < len(live) &&
		((maxEntries > 0 && len(live)-drop > maxEntries) || (maxBytes > 0 && bytes > maxBytes)) {
		res.Pruned = append(res.Pruned, live[drop].path)
		res.PrunedBytes += live[drop].size
		bytes -= live[drop].size
		drop++
	}
	res.Kept = len(live) - drop
	if !apply {
		return res, nil
	}
	for _, path := range res.Pruned {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return res, fmt.Errorf("store: gc pruning %s: %w", path, err)
		}
	}
	return res, nil
}

// objFile is one file of the object tree with the metadata GC and Stats
// order and account by.
type objFile struct {
	path string
	size int64
	mod  time.Time
	ok   bool // parses and verifies as this store's entry
}

// scan walks the object tree and classifies every regular file. Stray
// temp files from interrupted atomic writes count as corrupt — they are
// garbage by construction.
func (d *Disk) scan() ([]objFile, error) {
	var out []objFile
	root := filepath.Join(d.dir, objectsDir)
	err := filepath.WalkDir(root, func(path string, ent fs.DirEntry, err error) error {
		if err != nil || ent.IsDir() {
			return err
		}
		info, err := ent.Info()
		if err != nil {
			return err
		}
		f := objFile{path: path, size: info.Size(), mod: info.ModTime()}
		if raw, err := os.ReadFile(path); err == nil {
			e, err := decodeEnvelope(raw, d.engine)
			f.ok = err == nil && d.objectPath(keyHash(e.Key)) == path
		}
		out = append(out, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}
