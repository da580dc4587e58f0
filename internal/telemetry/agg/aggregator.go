package agg

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fsutil"
)

// Aggregator is the per-process aggregation tier: every completed cell
// is merged into the in-memory Surface (bounded, queryable via
// /surface) and enqueued on the batching exporter (bounded, streamed to
// the sink).  A nil *Aggregator is a valid no-op receiver, so callers
// can wire it unconditionally.
type Aggregator struct {
	surface  *Surface
	exporter *Exporter
}

// New builds an aggregator over the sink.  sink nil means surface-only
// (no streaming export).
func New(sink Sink, cfg ExporterConfig) *Aggregator {
	a := &Aggregator{surface: NewSurface(DefaultAlpha)}
	if sink != nil {
		a.exporter = NewExporter(sink, cfg)
	}
	return a
}

// Surface exposes the live surface (nil on a nil aggregator).
func (a *Aggregator) Surface() *Surface {
	if a == nil {
		return nil
	}
	return a.surface
}

// ObserveCell folds one cell rollup in.  Only a fresh cell (not a
// duplicate re-observation) is exported — a resumed sweep restoring
// journalled cells re-populates the surface without re-streaming cells
// an earlier incarnation already delivered... unless the stream file
// was truncated, which is why the deterministic artifacts come from the
// surface, not the stream.
func (a *Aggregator) ObserveCell(c CellRollup) {
	if a == nil {
		return
	}
	if fresh := a.surface.Add(c); fresh && a.exporter != nil {
		a.exporter.Enqueue(c)
	}
}

// Dropped reports the exporter's dropped-rollup count.
func (a *Aggregator) Dropped() uint64 {
	if a == nil || a.exporter == nil {
		return 0
	}
	return a.exporter.Dropped()
}

// Close flushes and closes the exporter and sink.
func (a *Aggregator) Close() error {
	if a == nil || a.exporter == nil {
		return nil
	}
	return a.exporter.Close()
}

// Artifact file names WriteArtifacts produces under the -agg-dir.
const (
	SurfaceFile = "surface.json"
	RollupsFile = "rollups.jsonl"
	StreamFile  = "stream.jsonl"
)

// WriteArtifacts writes the canonical aggregation artifacts into dir:
// surface.json (the full surface document) and rollups.jsonl (one
// full-fidelity group per line, sorted by group key).  Both are derived
// from the order-free surface, so they are byte-identical for a given
// cell set regardless of worker count, completion order, or a
// kill+resume in between.  Writes are atomic (tmp+rename).
func (a *Aggregator) WriteArtifacts(dir string) error {
	if a == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("agg: artifacts dir: %w", err)
	}
	sj, err := a.surface.MarshalSurface()
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(filepath.Join(dir, SurfaceFile), append(sj, '\n'), 0o644); err != nil {
		return err
	}
	rl, err := a.surface.MarshalRollups()
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(filepath.Join(dir, RollupsFile), rl, 0o644)
}
