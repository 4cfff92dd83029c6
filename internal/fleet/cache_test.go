package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"veridevops/internal/host"
)

func TestSaveLoadCacheRestartResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet-cache.json")

	// First process: full sweep, drift two hosts, persist.
	targets, hosts := LinuxFleet(8)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 4, Workers: 2})
	host.DriftLinux(hosts[2], 3, newRng(5))
	host.DriftLinux(hosts[6], 2, newRng(6))
	if err := coord.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	// The uninterrupted coordinator's incremental sweep is the reference.
	wantRep, wantSt := coord.Sweep(targets, Options{Shards: 4, Workers: 2, Incremental: true})

	// Second process: fresh coordinator resumes from the file. The same
	// two hosts re-run, the other six replay, and the report matches the
	// uninterrupted run exactly.
	resumed := NewCoordinator()
	if err := resumed.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	if resumed.CachedHosts() != 8 {
		t.Fatalf("restored %d hosts, want 8", resumed.CachedHosts())
	}
	gotRep, gotSt := resumed.Sweep(targets, Options{Shards: 4, Workers: 2, Incremental: true})
	if gotSt.CachedHosts != wantSt.CachedHosts || gotSt.CachedHosts != 6 {
		t.Errorf("CachedHosts = %d, uninterrupted run had %d (want 6)",
			gotSt.CachedHosts, wantSt.CachedHosts)
	}
	if gotSt.CacheHitRate() != wantSt.CacheHitRate() {
		t.Errorf("hit rate = %v, uninterrupted run had %v",
			gotSt.CacheHitRate(), wantSt.CacheHitRate())
	}
	if !reflect.DeepEqual(reportVerdicts(gotRep), reportVerdicts(wantRep)) {
		t.Error("restart-resume sweep verdicts diverge from the uninterrupted run")
	}

	// The persisted cost table seeds LPT scheduling on the new process.
	costs := resumed.snapshotCosts(resumed.sweepJobs(targets))
	nonzero := 0
	for _, c := range costs {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero != 8 {
		t.Errorf("restored %d cost estimates, want 8", nonzero)
	}
}

func reportVerdicts(r FleetReport) map[string]string {
	out := map[string]string{}
	for _, hr := range r.Hosts {
		for _, res := range hr.Report.Results {
			out[hr.Target+"/"+res.FindingID] = res.After.String()
		}
	}
	return out
}

func TestLoadCacheCorruptFileColdStarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	targets, _ := LinuxFleet(3)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 1, Workers: 1}) // warm, then poison
	if err := coord.LoadCache(path); err == nil {
		t.Fatal("corrupt cache file must error")
	}
	if coord.CachedHosts() != 0 {
		t.Error("corrupt load must leave the coordinator cold")
	}
	// Cold fallback still sweeps correctly.
	_, st := coord.Sweep(targets, Options{Shards: 2, Workers: 1, Incremental: true})
	if st.CachedHosts != 0 || st.CacheMisses == 0 {
		t.Errorf("cold fallback sweep = %+v, want full run", st)
	}
}

func TestLoadCacheSchemaMismatchColdStarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte(`{"schema": 99, "hosts": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator()
	err := coord.LoadCache(path)
	if !errors.Is(err, ErrCacheSchema) {
		t.Fatalf("err = %v, want ErrCacheSchema", err)
	}
	if coord.CachedHosts() != 0 {
		t.Error("schema mismatch must leave the coordinator cold")
	}
}

func TestLoadCacheMissingFileColdStarts(t *testing.T) {
	coord := NewCoordinator()
	err := coord.LoadCache(filepath.Join(t.TempDir(), "absent.json"))
	if err == nil {
		t.Fatal("missing file must error")
	}
	if coord.CachedHosts() != 0 {
		t.Error("missing file must leave the coordinator cold")
	}
}

// TestSaveLoadCacheCostOnlyHosts covers the unversioned-target corner:
// a host audited without a Version probe records an LPT cost estimate
// but never a cache entry, so SaveCache writes it as a cost-only record
// (Version 0, empty report). LoadCache must restore the cost without
// inventing a cache entry, and a schema-mismatch file must cold-start
// with costs empty too.
func TestSaveLoadCacheCostOnlyHosts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	targets, _ := LinuxFleet(3)
	targets[1].Version = nil // cost-only: audited but unversioned

	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 1, Workers: 1})
	if coord.CachedHosts() != 2 {
		t.Fatalf("cached %d hosts, want 2 (unversioned host must not cache)", coord.CachedHosts())
	}
	if err := coord.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	restored := NewCoordinator()
	if err := restored.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	if restored.CachedHosts() != 2 {
		t.Errorf("restored %d cache entries, want 2 (cost-only record must not become one)",
			restored.CachedHosts())
	}
	costs := restored.snapshotCosts(restored.sweepJobs(targets))
	for i, c := range costs {
		if c <= 0 {
			t.Errorf("restored cost for %s = %v, want > 0", targets[i].Name, c)
		}
	}

	// A schema this build does not write degrades to a fully cold start:
	// no cache entries and no cost estimates, even though the file holds
	// both.
	if err := os.WriteFile(path,
		[]byte(`{"schema": 99, "hosts": {"host-01": {"version": 0, "cost_ns": 12345, "report": {"Results": null}}}}`),
		0o644); err != nil {
		t.Fatal(err)
	}
	cold := NewCoordinator()
	if err := cold.LoadCache(path); !errors.Is(err, ErrCacheSchema) {
		t.Fatalf("err = %v, want ErrCacheSchema", err)
	}
	for i, c := range cold.snapshotCosts(cold.sweepJobs(targets)) {
		if c != 0 {
			t.Errorf("schema-mismatch load kept cost for %s = %v, want 0", targets[i].Name, c)
		}
	}
}

func TestSaveCacheRoundTripsInvalidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	targets, _ := LinuxFleet(4)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 2, Workers: 1})
	coord.Invalidate("host-01")
	if err := coord.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	restored := NewCoordinator()
	if err := restored.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	if restored.CachedHosts() != 3 {
		t.Errorf("restored %d hosts, want 3 (invalidation persisted)", restored.CachedHosts())
	}
	_, st := restored.Sweep(targets, Options{Shards: 2, Workers: 1, Incremental: true})
	if st.CachedHosts != 3 {
		t.Errorf("resumed sweep cached %d hosts, want 3", st.CachedHosts)
	}
}

func TestSaveCacheFailureKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	targets, _ := LinuxFleet(4)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 2, Workers: 1})
	if err := coord.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	// The next save, of an emptied cache, dies after writing its data but
	// before the rename: the point where a plain os.WriteFile would
	// already have truncated the previous file.
	coord.InvalidateAll()
	errCrash := errors.New("simulated crash before rename")
	syncFile = func(*os.File) error { return errCrash }
	t.Cleanup(func() { syncFile = (*os.File).Sync })
	if err := coord.SaveCache(path); !errors.Is(err, errCrash) {
		t.Fatalf("SaveCache error = %v, want the injected failure", err)
	}

	restored := NewCoordinator()
	if err := restored.LoadCache(path); err != nil {
		t.Fatalf("previous cache file no longer loads: %v", err)
	}
	if restored.CachedHosts() != 4 {
		t.Errorf("restored %d hosts, want the previous file's 4", restored.CachedHosts())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cache.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v after a failed save, want only cache.json", names)
	}

	// With the fsync restored, the same save replaces the file.
	syncFile = (*os.File).Sync
	if err := coord.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	if restored.CachedHosts() != 0 {
		t.Errorf("after a good save restored %d hosts, want the emptied cache's 0", restored.CachedHosts())
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Errorf("saved file mode = %v (%v), want 0644", info.Mode().Perm(), err)
	}
}
