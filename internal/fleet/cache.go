package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"veridevops/internal/core"
)

// Persistent incremental cache: SaveCache serialises the coordinator's
// per-host reports (and observed cost table) to JSON, LoadCache restores
// them, so a restarted coordinator resumes incremental sweeps — and LPT
// scheduling estimates — where the previous process stopped instead of
// re-auditing the whole fleet cold.

// cacheSchema versions the on-disk layout. LoadCache refuses any other
// value: an old or future file degrades to a cold start, never to a
// misread cache.
const cacheSchema = 1

// ErrCacheSchema marks a cache file whose schema version is not the one
// this build writes. errors.Is(err, ErrCacheSchema) distinguishes it from
// I/O and syntax failures; either way the coordinator is left cold.
var ErrCacheSchema = errors.New("fleet: unrecognised cache schema")

type cacheFile struct {
	Schema int                      `json:"schema"`
	Hosts  map[string]cacheFileHost `json:"hosts"`
}

type cacheFileHost struct {
	Version uint64      `json:"version"`
	CostNS  int64       `json:"cost_ns,omitempty"`
	Report  core.Report `json:"report"`
}

// SaveCache writes the coordinator's incremental cache and cost table to
// path, replacing any previous file atomically: the data goes to a
// temporary file in the same directory, is fsynced, and is renamed over
// path. A crash or error mid-save leaves the previous file intact and
// loadable; the temporary file is removed on error.
func (c *Coordinator) SaveCache(path string) error {
	c.mu.Lock()
	f := cacheFile{Schema: cacheSchema, Hosts: make(map[string]cacheFileHost, len(c.cache))}
	for name, e := range c.cache {
		f.Hosts[name] = cacheFileHost{
			Version: e.version,
			CostNS:  int64(c.costs[name]),
			Report:  e.report,
		}
	}
	// Cost-only hosts (audited but unversioned) keep their LPT estimate.
	for name, cost := range c.costs {
		if _, ok := f.Hosts[name]; !ok {
			f.Hosts[name] = cacheFileHost{CostNS: int64(cost)}
		}
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encode cache: %w", err)
	}
	return writeFileAtomic(path, append(data, '\n'), 0o644)
}

// syncFile is the fsync step of writeFileAtomic. Tests replace it to
// fail a save after the data has been written but before the rename.
var syncFile = (*os.File).Sync

// writeFileAtomic writes data to a temporary file next to path, fsyncs
// it and renames it over path, so readers see either the old contents or
// the new ones, never a torn file.
func writeFileAtomic(path string, data []byte, perm os.FileMode) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(perm)
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		// Best effort: the save has already failed, and a leftover temp
		// file never shadows path.
		_ = os.Remove(tmp)
		return fmt.Errorf("fleet: save cache: %w", err)
	}
	return nil
}

// LoadCache replaces the coordinator's cache and cost table with the
// contents of path. On any failure — unreadable file, corrupt JSON, a
// schema version this build does not write — the coordinator is left
// with an empty cache (a cold start, exactly as if the file were absent)
// and the error is returned for logging.
func (c *Coordinator) LoadCache(path string) error {
	c.mu.Lock()
	c.cache = make(map[string]cacheEntry)
	c.costs = make(map[string]time.Duration)
	c.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("fleet: corrupt cache file %s: %w", path, err)
	}
	if f.Schema != cacheSchema {
		return fmt.Errorf("%w: file %s has schema %d, this build reads %d",
			ErrCacheSchema, path, f.Schema, cacheSchema)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, h := range f.Hosts {
		if len(h.Report.Results) > 0 || h.Version > 0 {
			c.cache[name] = newCacheEntry(h.Version, h.Report)
		}
		if h.CostNS > 0 {
			c.costs[name] = time.Duration(h.CostNS)
		}
	}
	return nil
}
