package engine

import (
	"context"
	"encoding/json"
	"errors"
	"sort"

	"dswp/internal/ckptstore"
	"dswp/internal/interp"
	"dswp/internal/supervisor"
	"dswp/internal/workloads"
)

// RecoveredRun describes one orphaned request Recover finished.
type RecoveredRun struct {
	// Key is the checkpoint-store key the orphan lived under.
	Key string `json:"key"`
	// Workload names the recovered request's workload.
	Workload string `json:"workload"`
	// Iter is the checkpoint iteration the recovery resumed from.
	Iter int64 `json:"iter"`
	// Digest is the finished run's state digest (hex) — bit-identical to
	// what an uninterrupted run would have produced.
	Digest string `json:"digest"`
}

// RecoveryStats summarizes a Recover pass; /healthz reports the latest.
type RecoveryStats struct {
	// Scanned counts store keys examined.
	Scanned int `json:"scanned"`
	// Resumed counts orphans finished to completion from their checkpoint.
	Resumed int `json:"resumed"`
	// GCed counts entries deleted without a resume (corrupt, stale
	// metadata, unresolvable workload).
	GCed int `json:"gced"`
	// Corrupt counts entries that failed CRC or framing validation —
	// torn writes from the crash — plus any the store skipped at open.
	Corrupt int `json:"corrupt"`
	// Failed counts resumes that errored; their entries are GCed too.
	Failed int `json:"failed"`
	// Runs details each recovered request.
	Runs []RecoveredRun `json:"runs,omitempty"`
}

// Recover scans the checkpoint store for entries orphaned by a crash —
// every normal outcome deletes its entry, so anything present was
// in flight when the process died — and finishes each from its last
// durable checkpoint via the sequential resume path. Unusable entries
// (torn writes, unparsable metadata, workloads no longer registered) are
// garbage-collected. dswpd calls this once on startup, before serving;
// the stats land in /healthz and the recovered counter in /metrics.
func (e *Engine) Recover(ctx context.Context) (*RecoveryStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stats := &RecoveryStats{}
	keys, err := e.store.Keys()
	if err != nil {
		return stats, err
	}
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		stats.Scanned++
		entry, err := e.store.Get(key)
		if err != nil {
			if errors.Is(err, ckptstore.ErrCorrupt) {
				stats.Corrupt++
			}
			e.store.Delete(key)
			stats.GCed++
			continue
		}
		run, err := e.recoverOne(ctx, entry)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return stats, err
			}
			stats.Failed++
			e.store.Delete(key)
			stats.GCed++
			continue
		}
		stats.Resumed++
		stats.Runs = append(stats.Runs, *run)
		e.met.recovered.Add(1)
		e.store.Delete(key)
	}
	// Torn files the store already skipped (and GC'd) at open count too:
	// they are crash damage the operator should see.
	if cc, ok := e.store.(ckptstore.CorruptCounter); ok {
		stats.Corrupt += cc.CorruptSkipped()
	}
	e.wlMu.Lock()
	e.recovery = stats
	e.wlMu.Unlock()
	return stats, nil
}

// recoverOne finishes one orphaned request: rebuild the workload from the
// entry's embedded request metadata, reconstruct the checkpoint against
// its initial image, and take the supervisor's sequential resume from
// there.
func (e *Engine) recoverOne(ctx context.Context, entry *ckptstore.Entry) (*RecoveredRun, error) {
	var req Request
	if err := json.Unmarshal(entry.Meta, &req); err != nil {
		return nil, err
	}
	build, _, err := resolve(req)
	if err != nil {
		return nil, err
	}
	prog := build()
	cp, err := entry.Checkpoint(prog.Mem)
	if err != nil {
		return nil, err
	}
	res, err := supervisor.Resume(ctx, supervisor.Pipeline{
		Original: prog.F, LoopHeader: prog.LoopHeader,
	}, &cp, supervisor.Policy{})
	if err != nil {
		return nil, err
	}
	return &RecoveredRun{
		Key:      entry.Key,
		Workload: req.Workload,
		Iter:     cp.Iter,
		Digest:   digestOf(res),
	}, nil
}

// LastRecovery returns the most recent Recover pass's stats, or nil when
// Recover has not run.
func (e *Engine) LastRecovery() *RecoveryStats {
	e.wlMu.Lock()
	defer e.wlMu.Unlock()
	return e.recovery
}

// wlCompileInfo is what the engine remembers about a workload's most
// recent compile, for /workloads.
type wlCompileInfo struct {
	pipelined      bool
	checkpointable bool
}

func (e *Engine) noteCompile(workload string, pipelined, checkpointable bool) {
	e.wlMu.Lock()
	e.wlInfo[workload] = wlCompileInfo{pipelined: pipelined, checkpointable: checkpointable}
	e.wlMu.Unlock()
}

// WorkloadInfo is one workload's serving status as /workloads reports it.
type WorkloadInfo struct {
	Name string `json:"name"`
	// Compiled is true once the engine has compiled this workload; the
	// two pointers below are only meaningful (non-nil) when it is.
	Compiled bool `json:"compiled"`
	// Pipelined reports whether the last compile produced a pipeline
	// (false = single-SCC/unprofitable, served sequentially).
	Pipelined *bool `json:"pipelined,omitempty"`
	// Checkpointable reports whether supervised runs of this workload
	// can commit aligned iteration checkpoints; false means failures
	// recompute from scratch (the disable-if-header-missing blind spot).
	Checkpointable *bool `json:"checkpointable,omitempty"`
	// Breaker is the workload's circuit-breaker state; nil when no
	// pipelined outcome has ever been recorded (implicitly closed).
	Breaker *BreakerInfo `json:"breaker,omitempty"`
}

// WorkloadInfos reports every servable workload with its compile-time
// and breaker status.
func (e *Engine) WorkloadInfos() []WorkloadInfo {
	names := Workloads()
	sort.Strings(names)
	infos := make([]WorkloadInfo, 0, len(names))
	e.wlMu.Lock()
	known := make(map[string]wlCompileInfo, len(e.wlInfo))
	for k, v := range e.wlInfo {
		known[k] = v
	}
	e.wlMu.Unlock()
	for _, name := range names {
		wi := WorkloadInfo{Name: name, Breaker: e.breaker.info(name)}
		if ci, ok := known[name]; ok {
			wi.Compiled = true
			p, c := ci.pipelined, ci.checkpointable
			wi.Pipelined, wi.Checkpointable = &p, &c
		}
		infos = append(infos, wi)
	}
	return infos
}

// digestOf renders a result's state digest the way Response.Digest does.
func digestOf(res *interp.Result) string {
	return hex16(workloads.StateDigest(res))
}
