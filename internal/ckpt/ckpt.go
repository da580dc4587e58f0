// Package ckpt persists sweep progress so a crashed, killed or
// interrupted grid can resume without re-running finished cells.
//
// A checkpoint is a directory holding two files:
//
//   - manifest.json — the sweep's identity (a caller-built string over
//     everything that changes cell results: experiment, root seed,
//     scale, scheduler, fault spec) plus its SHA-256, written once,
//     atomically (write-temp-fsync-rename via fsutil).  Resume refuses
//     a manifest whose identity hash differs: a journal from a
//     different grid must never donate results.
//   - journal.jsonl — an append-only record log, one JSON object per
//     line, fsynced per commit.  Records map a cell's stable key to its
//     status and, for completed cells, an opaque payload (the encoded
//     result) with its SHA-256 digest.
//
// Crash model: a SIGKILL can land between any two syscalls.  Appends
// are therefore self-delimiting (newline-framed JSON) and the loader
// stops at the first torn or corrupt line — every record before it
// committed with an fsync, everything after it is re-run.  Payload
// digests are verified at load, so a corrupt-but-parseable record
// degrades to "absent" (the cell re-runs) rather than resurrecting bad
// bytes.  The worst outcome of any crash is repeated work, never wrong
// results.
//
// The open journal holds an exclusive advisory flock, so two live
// processes can never interleave appends into one checkpoint; the
// kernel drops the lock when the holder dies, so even a SIGKILL'd
// writer never blocks a later resume.
//
// One checkpoint has one writer.  capbench's grid is a single process;
// in the sweep service the coordinator is the only writer of cell
// results (workers report over the wire and never touch a journal) and
// of its own state journal.  Checkpoint directories from older builds,
// which also held per-writer journal-<writer>.jsonl files, are refused
// rather than resumed without those records.
package ckpt

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fsutil"
)

// Status is a cell's lifecycle state in the journal.
type Status string

// The journal statuses.  Only StatusDone records carry a payload and
// are skipped on resume; every other status documents why the cell
// will run again.
const (
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusHung     Status = "hung"
	StatusPanicked Status = "panicked"
)

// Manifest identifies the sweep a journal belongs to.
type Manifest struct {
	// Version is the journal format version.
	Version int `json:"version"`
	// Identity is the human-readable sweep identity the caller built
	// from everything that changes cell results.
	Identity string `json:"identity"`
	// IdentityHash is the SHA-256 of Identity, the value Resume compares.
	IdentityHash string `json:"identity_hash"`
	// RootSeed echoes the sweep's root seed (informational; the seed is
	// part of Identity too).
	RootSeed int64 `json:"root_seed"`
}

// Record is one journal entry: the latest entry per key wins.
type Record struct {
	// Key is the cell's stable identity string.
	Key string `json:"key"`
	// Status is the cell's state.
	Status Status `json:"status"`
	// Digest is the hex SHA-256 of Payload ("" when no payload).
	Digest string `json:"digest,omitempty"`
	// Payload is the encoded result for StatusDone cells.
	Payload []byte `json:"payload,omitempty"`
	// Error describes the failure for failed/hung/panicked cells.
	Error string `json:"error,omitempty"`
}

const (
	manifestName = "manifest.json"
	journalName  = "journal.jsonl"
	version      = 1
)

// Journal is an open checkpoint.  Commit is safe for concurrent use by
// pool workers.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	records  map[string]Record
	resumed  int
	onCommit func(Record)
}

// SetOnCommit installs a hook called after every durable Commit, with
// the committed record (payload included).  The hook runs outside the
// journal lock on the committing goroutine; keep it cheap and
// thread-safe — the sweep executor uses it to publish
// CheckpointCommitted events.
func (j *Journal) SetOnCommit(fn func(Record)) {
	j.mu.Lock()
	j.onCommit = fn
	j.mu.Unlock()
}

// HashIdentity returns the hex SHA-256 of an identity string.
func HashIdentity(identity string) string {
	sum := sha256.Sum256([]byte(identity))
	return hex.EncodeToString(sum[:])
}

// Create starts a fresh checkpoint in dir (created if missing).  It
// refuses a directory that already holds a manifest: overwriting an
// existing journal silently would discard resumable work — callers must
// pass resume intent explicitly (Resume) or clear the directory.
func Create(dir string, m Manifest) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mpath := filepath.Join(dir, manifestName)
	if _, err := os.Stat(mpath); err == nil {
		return nil, fmt.Errorf("ckpt: %s already holds a checkpoint (resume it or remove the directory)", dir)
	}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	return open(dir, nil)
}

// Resume opens an existing checkpoint, verifying its identity hash
// matches m's.  Committed records from its journal become available
// through Lookup; torn or digest-corrupt entries are dropped (their
// cells re-run).
func Resume(dir string, m Manifest) (*Journal, error) {
	if err := verifyManifest(dir, m); err != nil {
		return nil, err
	}
	if err := refuseWriterJournals(dir); err != nil {
		return nil, err
	}
	records, err := loadJournal(filepath.Join(dir, journalName))
	if err != nil {
		return nil, err
	}
	return open(dir, records)
}

// Open creates the checkpoint when dir holds none and resumes it
// otherwise — for long-lived owners (the sweep coordinator's state
// and cell journals) that open the same directory on every start.
func Open(dir string, m Manifest) (*Journal, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); os.IsNotExist(err) {
		return Create(dir, m)
	}
	return Resume(dir, m)
}

// refuseWriterJournals rejects a checkpoint written by an older build
// whose sweep-service workers journaled into per-writer
// journal-<writer>.jsonl files.  Resuming it without them would
// silently drop their records — for the coordinator's state journal,
// its whole durable queue.
func refuseWriterJournals(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		return err
	}
	if len(names) > 0 {
		return fmt.Errorf("ckpt: %s is a per-writer journal from an older build; this version reads only %s — finish the sweep with that build or remove the directory",
			names[0], journalName)
	}
	return nil
}

// writeManifest stamps and writes the manifest atomically.
func writeManifest(dir string, m Manifest) error {
	m.Version = version
	m.IdentityHash = HashIdentity(m.Identity)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(filepath.Join(dir, manifestName), append(data, '\n'), 0o644)
}

// verifyManifest checks the on-disk manifest carries m's identity.
func verifyManifest(dir string, m Manifest) error {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("ckpt: no checkpoint to resume in %s: %w", dir, err)
	}
	var have Manifest
	if err := json.Unmarshal(data, &have); err != nil {
		return fmt.Errorf("ckpt: corrupt manifest in %s: %w", dir, err)
	}
	if have.Version != version {
		return fmt.Errorf("ckpt: manifest version %d, want %d", have.Version, version)
	}
	if have.IdentityHash != HashIdentity(m.Identity) {
		return fmt.Errorf("ckpt: checkpoint in %s belongs to a different sweep:\n  have: %s\n  want: %s",
			dir, have.Identity, m.Identity)
	}
	return nil
}

// open finishes construction: the journal file is opened append-only so
// every commit lands after the loaded prefix, and flocked so a second
// live process cannot interleave its appends with ours (the lock dies
// with the process, so it never outlives a crash).
func open(dir string, records map[string]Record) (*Journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	if records == nil {
		records = make(map[string]Record)
	}
	return &Journal{f: f, records: records}, nil
}

// loadJournal replays a record log, last record per key winning.  The
// scan stops at the first unparseable line: with per-commit fsync,
// corruption can only be a torn tail.
func loadJournal(path string) (map[string]Record, error) {
	records := make(map[string]Record)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return records, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			break // torn tail: everything after the last fsync re-runs
		}
		if r.Status == StatusDone && r.Digest != hashPayload(r.Payload) {
			// Parseable but corrupt payload: forget the cell entirely so
			// the stale record below it cannot resurface either.
			delete(records, r.Key)
			continue
		}
		records[r.Key] = r
	}
	return records, nil
}

func hashPayload(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}

// Records returns a copy of every record currently visible through
// Lookup — loaded at open plus committed since — sorted by key.  The
// sweep-service coordinator replays its durable state through this.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.records))
	for _, r := range j.records {
		out = append(out, r)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Key < out[k].Key })
	return out
}

// Lookup reports the latest committed record for key.
func (j *Journal) Lookup(key string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.records[key]
	return r, ok
}

// Done reports how many cells currently have a StatusDone record.
func (j *Journal) Done() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, r := range j.records {
		if r.Status == StatusDone {
			n++
		}
	}
	return n
}

// Resumed reports how many Lookup hits were served from a prior run's
// records (counted by MarkResumed).
func (j *Journal) Resumed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumed
}

// MarkResumed counts one cell skipped from a prior run's record.
func (j *Journal) MarkResumed() {
	j.mu.Lock()
	j.resumed++
	j.mu.Unlock()
}

// Commit appends a record and fsyncs it: once Commit returns, the
// record survives any crash.  For StatusDone records the digest is
// computed here; callers supply only the payload.
func (j *Journal) Commit(r Record) error {
	if r.Key == "" {
		return fmt.Errorf("ckpt: record without key")
	}
	if r.Status == StatusDone {
		r.Digest = hashPayload(r.Payload)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return fmt.Errorf("ckpt: journal closed")
	}
	if _, err := j.f.Write(line); err != nil {
		j.mu.Unlock()
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.mu.Unlock()
		return err
	}
	j.records[r.Key] = r
	fn := j.onCommit
	j.mu.Unlock()
	if fn != nil {
		// Outside the lock: the hook may take other locks (bus, metrics)
		// and must not serialise committing workers against itself.
		fn(r)
	}
	return nil
}

// Close flushes and closes the journal file.  Lookup keeps working on
// the in-memory records; Commit fails.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
