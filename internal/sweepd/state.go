// Durable coordinator state: the piece of the service that used to
// live only in memory — which jobs exist, in what order they queue,
// how much failure budget each cell has already burned, and how each
// job ended — journaled through the same append-only + atomic-manifest
// + flock machinery (internal/ckpt) that already makes cell results
// crash-safe.
//
// The state journal is a second, coordinator-owned checkpoint under
// <CheckpointDir>/coordstate, separate from the per-job cell journals.
// One record per job, last record per key wins (the ckpt replay rule):
//
//   - job|<id> @ "queued"    — the submission: spec, tenant, priority,
//     idempotency key and the submit sequence number that fixes queue
//     order across a restart.  The record stays "queued" while the job
//     is dispatching; recovery re-submits it and the per-job cell
//     journal supplies the done cells.
//   - job|<id> @ "done"      — the terminal report (drained partials
//     keep their spec so a restart re-enqueues the remainder).
//   - job|<id> @ "cancelled" — a tombstone; recovery resurrects the
//     job only as a queryable terminal record, never as work.
//   - budgets|<id> @ "budgets" — the latest nonzero kill/failure/
//     quarantine counters per cell, overwritten on change, so a
//     restarted coordinator does not grant a poisoned cell a fresh
//     budget to burn another fleet with.
//
// kill -9 can land between any two syscalls: every Commit is fsynced
// by ckpt, recovery replays the journal, and anything the journal missed
// (an un-acked submission, a budget increment in flight) degrades to
// repeated work or a slightly generous budget — never lost results,
// never a forgotten job that was acked.
package sweepd

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/ckpt"
)

// stateIdentity is the state journal's manifest identity.  It names a
// format, not a job: every coordinator deployment shares it.
const stateIdentity = "sweepd-coordinator-state|v1"

// stateDirName is the subdirectory of CheckpointDir the journal lives
// in (sibling of the per-job cell journal directories).
const stateDirName = "coordstate"

// The coordinator's job lifecycle statuses in the state journal.
// stateDone reuses ckpt.StatusDone so done records get ckpt's payload
// digest verification for free.
const (
	stateQueued    ckpt.Status = "queued"
	stateDone      ckpt.Status = ckpt.StatusDone
	stateCancelled ckpt.Status = "cancelled"
	stateBudgets   ckpt.Status = "budgets"
)

// queuedState is the payload of a job|<id> "queued" record.
type queuedState struct {
	Seq  uint64  `json:"seq"`
	Spec JobSpec `json:"spec"`
}

// doneState is the payload of a job|<id> "done" record.  Spec rides
// along so a drained partial can be re-enqueued after a restart.
type doneState struct {
	Seq    uint64     `json:"seq"`
	Spec   JobSpec    `json:"spec"`
	Report *JobReport `json:"report"`
}

// cancelledState is the payload of a job|<id> "cancelled" tombstone.
type cancelledState struct {
	Seq    uint64  `json:"seq"`
	Spec   JobSpec `json:"spec"`
	Reason string  `json:"reason,omitempty"`
}

// cellBudget is one cell's burned failure budget in a budgets record.
type cellBudget struct {
	Kills       int    `json:"kills,omitempty"`
	Failures    int    `json:"failures,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// stateJournal wraps the ckpt journal with the record schema above.
// Nil receiver is a valid no-op (coordinator without CheckpointDir).
type stateJournal struct {
	j *ckpt.Journal
}

// openStateJournal opens (or creates) the coordinator state journal
// under base.  The exclusive flock doubles as the single-coordinator
// guard: two live coordinators cannot share one state directory.
func openStateJournal(base string) (*stateJournal, error) {
	j, err := ckpt.Open(filepath.Join(base, stateDirName), ckpt.Manifest{Identity: stateIdentity})
	if err != nil {
		return nil, fmt.Errorf("sweepd: state journal: %w", err)
	}
	return &stateJournal{j: j}, nil
}

func jobKey(id string) string     { return "job|" + id }
func budgetsKey(id string) string { return "budgets|" + id }

// commit marshals payload and journals it under key/status, fsynced.
func (s *stateJournal) commit(key string, status ckpt.Status, payload any) error {
	if s == nil {
		return nil
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	return s.j.Commit(ckpt.Record{Key: key, Status: status, Payload: data})
}

// Queued journals a submission.
func (s *stateJournal) Queued(id string, seq uint64, spec JobSpec) error {
	return s.commit(jobKey(id), stateQueued, queuedState{Seq: seq, Spec: spec})
}

// Done journals a terminal report.
func (s *stateJournal) Done(id string, seq uint64, spec JobSpec, rep *JobReport) error {
	return s.commit(jobKey(id), stateDone, doneState{Seq: seq, Spec: spec, Report: rep})
}

// Cancelled journals a cancellation tombstone.
func (s *stateJournal) Cancelled(id string, seq uint64, spec JobSpec, reason string) error {
	return s.commit(jobKey(id), stateCancelled, cancelledState{Seq: seq, Spec: spec, Reason: reason})
}

// Budgets journals a job's burned-budget snapshot.
func (s *stateJournal) Budgets(id string, data []byte) error {
	if s == nil {
		return nil
	}
	return s.j.Commit(ckpt.Record{Key: budgetsKey(id), Status: stateBudgets, Payload: data})
}

// Close releases the journal (and its flock).
func (s *stateJournal) Close() error {
	if s == nil {
		return nil
	}
	return s.j.Close()
}

// recoveredJob is one job replayed from the state journal, in a form
// the coordinator can act on.
type recoveredJob struct {
	id        string
	seq       uint64
	spec      JobSpec
	status    ckpt.Status // queued | done | cancelled
	report    *JobReport  // done only
	reason    string      // cancelled only
	budgets   map[string]cellBudget
	resumable bool // queued, or done-but-drained: becomes work again
}

// replay decodes every job in the journal, submission order.
func (s *stateJournal) replay() ([]recoveredJob, error) {
	if s == nil {
		return nil, nil
	}
	budgets := make(map[string]map[string]cellBudget)
	var jobs []recoveredJob
	for _, rec := range s.j.Records() {
		switch {
		case len(rec.Key) > 8 && rec.Key[:8] == "budgets|":
			var b map[string]cellBudget
			if err := json.Unmarshal(rec.Payload, &b); err == nil {
				budgets[rec.Key[8:]] = b
			}
		case len(rec.Key) > 4 && rec.Key[:4] == "job|":
			id := rec.Key[4:]
			rj := recoveredJob{id: id, status: rec.Status}
			switch rec.Status {
			case stateQueued:
				var qs queuedState
				if err := json.Unmarshal(rec.Payload, &qs); err != nil {
					continue // corrupt: the submission was never acked durably
				}
				rj.seq, rj.spec, rj.resumable = qs.Seq, qs.Spec, true
			case stateDone:
				var ds doneState
				if err := json.Unmarshal(rec.Payload, &ds); err != nil {
					continue
				}
				rj.seq, rj.spec, rj.report = ds.Seq, ds.Spec, ds.Report
				// A drained partial is unfinished work wearing a report:
				// re-enqueue it so the restart finishes the remainder.
				rj.resumable = ds.Report != nil && ds.Report.Drained
			case stateCancelled:
				var cs cancelledState
				if err := json.Unmarshal(rec.Payload, &cs); err != nil {
					continue
				}
				rj.seq, rj.spec, rj.reason = cs.Seq, cs.Spec, cs.Reason
			default:
				continue
			}
			jobs = append(jobs, rj)
		}
	}
	for i := range jobs {
		jobs[i].budgets = budgets[jobs[i].id]
	}
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	return jobs, nil
}
