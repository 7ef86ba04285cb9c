package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// On-disk layout of a campaign directory:
//
//	manifest.json  — immutable campaign identity (spec, graph fingerprint,
//	                 shard totals), written once via atomic rename
//	graph.graphml  — the graph under test, so Resume needs no other input
//	journal.jsonl  — one JSON record appended per completed shard
//	result.json    — final merged result, written via atomic rename when
//	                 the campaign completes
const (
	manifestFile = "manifest.json"
	graphFile    = "graph.graphml"
	journalFile  = "journal.jsonl"
	resultFile   = "result.json"
)

// manifestVersion guards the on-disk format; Resume rejects manifests from
// a different version rather than misreading them. Version 2 switched
// exhaustive shards to revolving-door rank ranges, version 3 made a shard
// record its range's lexicographically smallest failures. Version 4 made an
// exhaustive cardinality one shard, computed from stopping sets: a v3
// journal's range shards do not match the v4 plan. Version 5 made a
// profile's sampled points share one set of arrival-order shards, each
// journaling its histogram of thresholds: a v4 profile's per-cardinality
// shards do not match the v5 plan. Version 6 planned a profile as order
// shards only: a v5 profile's exhaustive shards for the points with
// C(n,k) ≤ 100,000 do not match the v6 plan. Version 7 put the worst-case
// search to sim.DefaultMaxK before a profile's order shards: a v6
// profile's first shard IDs name order shards. A v5 or v6 worst-case or
// sampled campaign plans as it did, so it is still read. The stopping rule's
// looking after every block instead of after doubling rounds of them did
// not bump the version: a sampled campaign's shard list is unchanged, and a
// v7 journal written under the rounds resumes to the result a fresh run
// gets (its blocks past the new stop are never folded).
const manifestVersion = 7

// Manifest is the immutable identity of a campaign directory.
type Manifest struct {
	Version     int    `json:"version"`
	CreatedUnix int64  `json:"created_unix"`
	GraphName   string `json:"graph_name"`
	Fingerprint string `json:"fingerprint"` // graph.Fingerprint() of graph.graphml
	Spec        Spec   `json:"spec"`        // normalized; replanning it reproduces the shard list
	TotalShards int    `json:"total_shards"`
	TotalWork   int64  `json:"total_work"` // combinations + trials across all shards
}

// status is the progress snapshot of a campaign in dir with nothing done.
func (m Manifest) status(dir string) Status {
	return Status{Dir: dir, Kind: m.Spec.Kind, Fingerprint: m.Fingerprint, TotalShards: m.TotalShards, WorkTotal: m.TotalWork}
}

// Record is one journal line: the complete, deterministic result of one
// shard — a sim.Unit, Shard being its ID (see toRecord). Exhaustive shards
// (one cardinality each) carry Tested/FailCount/Failures; Monte Carlo
// shards carry Trials/Hits.
// Sampled shards additionally carry the per-stratum tallies and the
// screening count, and reuse Failures for the failing witness patterns.
// Profile order shards additionally carry their threshold histogram.
type Record struct {
	Shard     int     `json:"shard"`
	K         int     `json:"k"`
	Tested    int64   `json:"tested,omitempty"`
	FailCount int64   `json:"fail_count,omitempty"`
	Failures  [][]int `json:"failures,omitempty"`
	Trials    int64   `json:"trials,omitempty"`
	Hits      int64   `json:"hits,omitempty"`

	// Sampled-shard stratification (KindSampled): index s tallies the
	// trials whose max same-check collision count is s (capped at K).
	StrataHits   []int64 `json:"strata_hits,omitempty"`
	StrataTrials []int64 `json:"strata_trials,omitempty"`
	// Screened counts the shard's trials resolved by structural proof
	// alone, never decoded.
	Screened int64 `json:"screened,omitempty"`

	// Profile order shards (KindProfile): entry i counts the shard's
	// arrival orders whose threshold is Total−MaxK+i, the first and last
	// entries taking every order below and above the sampled points
	// K..MaxK (sim.UnitResult.Thresholds).
	Thresholds []int64 `json:"thresholds,omitempty"`
}

// writeFileAtomic writes data to path via a temp file, fsync, and rename,
// so readers never observe a partial manifest or result.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

func readManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return m, fmt.Errorf("campaign: no manifest in %s: %w", dir, err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("campaign: corrupt manifest in %s: %w", dir, err)
	}
	if m.Version != manifestVersion && (m.Spec.Kind == KindProfile || m.Version != 5 && m.Version != 6) {
		return m, fmt.Errorf("campaign: manifest version %d in %s, this build reads %d: its shards do not match this build's plan; rerun the campaign in a new directory",
			m.Version, dir, manifestVersion)
	}
	return m, nil
}

// journalWriter appends shard records to journal.jsonl. Each record is one
// marshaled line written in a single Write and fsynced — at shard
// granularity the sync cost is noise, and it makes every acknowledged
// record crash-durable.
type journalWriter struct {
	mu sync.Mutex
	f  interface {
		io.WriteCloser
		Sync() error
	}
}

func openJournal(dir string) (*journalWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journalWriter{f: f}, nil
}

func (w *journalWriter) append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(append(data, '\n')); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *journalWriter) Close() error { return w.f.Close() }

// readJournal loads every decodable record from journal.jsonl, keyed by
// shard ID. A missing file is an empty journal. Undecodable lines — the
// partially written tail a crash can leave — are skipped: the affected
// shard simply reruns, which is always safe because shards are
// deterministic. A line that decodes is not yet trusted: fromRecord checks
// it against the planned shard.
func readJournal(dir string) (map[int]Record, error) {
	f, err := os.Open(filepath.Join(dir, journalFile))
	if err != nil {
		if os.IsNotExist(err) {
			return map[int]Record{}, nil
		}
		return nil, err
	}
	defer f.Close()

	done := map[int]Record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // truncated tail from a crash; shard will rerun
		}
		done[rec.Shard] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reading journal: %w", err)
	}
	return done, nil
}
