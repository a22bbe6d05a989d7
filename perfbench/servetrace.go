package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"dswp/internal/ckptstore"
	"dswp/internal/core"
	"dswp/internal/engine"
	"dswp/internal/interp"
	"dswp/internal/obs"
	"dswp/internal/psdswp"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/supervisor"
	"dswp/internal/workloads"
)

// direct is one request's pipeline built by calling the compiler and
// runtime layers directly, as the engine builds it. tr is nil when DSWP
// declines the config (list-of-lists at 4 threads), which the engine
// serves on the interpreter.
type direct struct {
	prog *workloads.Program // transformed in place
	tr   *core.Transformed
	plan *rt.Plan
	inst *rt.Instance
	meta []byte // the request, as the engine stores it with checkpoints
}

// buildTimes is one pipeline build, layer by layer.
type buildTimes struct {
	compileTimes
	psdswp, plan time.Duration
	sccs, queues int
}

func (bt buildTimes) total() time.Duration { return bt.profile + bt.apply + bt.psdswp + bt.plan }

// addTo charges the build to the ledger's compile layers.
func (bt buildTimes) addTo(l *layers) {
	l.profileMs += millis(bt.profile)
	l.applyMs += millis(bt.apply)
	l.psdswpMs += millis(bt.psdswp)
	l.rtPlanMs += millis(bt.plan)
	l.sccs += float64(bt.sccs)
	l.queues += float64(bt.queues)
}

// buildDirect builds req's pipeline by calling each layer as the
// engine's compile does, timing each.
func buildDirect(p *servedProgram, req engine.Request) (*direct, buildTimes, error) {
	var bt buildTimes
	prog := p.build()
	tr, ct, err := compile(prog, servedConfig(req))
	if err != nil {
		return nil, bt, err
	}
	bt.compileTimes = ct
	meta, err := json.Marshal(req)
	if err != nil {
		return nil, bt, err
	}
	if tr == nil {
		return &direct{prog: prog, meta: meta}, bt, nil
	}
	bt.sccs = tr.Stats.SCCs
	start := time.Now()
	topo := rt.SequentialTopology(len(tr.Threads))
	if req.Replicate {
		if prep := psdswp.Analyze(tr); prep.Replicable() && prep.Width >= 2 {
			res, err := psdswp.Replicate(tr, prep.Stage, prep.Width)
			if err != nil {
				return nil, bt, fmt.Errorf("replicate %s: %w", p.id, err)
			}
			tr = res.Tr
			topo = rt.ReplicatedTopology(len(tr.Threads), res.Stage, res.Width)
		}
	}
	bt.psdswp = time.Since(start)
	start = time.Now()
	plan, err := rt.NewPlan(tr.Threads)
	if err != nil {
		return nil, bt, fmt.Errorf("plan %s: %w", p.id, err)
	}
	plan.SetTopology(topo)
	inst := plan.NewInstance(queue.KindChannel, 0)
	bt.plan = time.Since(start)
	bt.queues = tr.NumQueues
	return &direct{prog: prog, tr: tr, plan: plan, inst: inst, meta: meta}, bt, nil
}

// runSeq runs the loop on the interpreter, as the engine does for a
// config DSWP declines.
func (dp *direct) runSeq() (*interp.Result, time.Duration) {
	start := time.Now()
	res, err := interp.Run(dp.prog.F, dp.prog.Options())
	el := time.Since(start)
	if err != nil {
		return nil, el
	}
	return res, el
}

// runRaw runs the pipeline on the runtime alone, as concurrent mode does;
// rec is nil except for the traced breakdown run.
func (dp *direct) runRaw(rec obs.Recorder) (*interp.Result, time.Duration) {
	start := time.Now()
	res, err := rt.Run(dp.tr.Threads, rt.Options{
		Queue: queue.KindChannel, Plan: dp.plan, Instance: dp.inst,
		Mem: dp.prog.Mem, Regs: dp.prog.Regs, Recorder: rec,
	})
	el := time.Since(start)
	if err != nil {
		return nil, el
	}
	return res, el
}

// runSupervised runs the pipeline under the supervisor with the engine's
// policy; store nil leaves out the durable commits but keeps the
// checkpoint barriers.
func (dp *direct) runSupervised(store ckptstore.Store, key string) (*interp.Result, *supervisor.Report, time.Duration) {
	pol := supervisor.Policy{Queue: queue.KindChannel, Plan: dp.plan, Instance: dp.inst,
		DisableResume: true}
	if store != nil {
		pol.Store, pol.StoreKey, pol.StoreMeta = store, key, dp.meta
	}
	start := time.Now()
	res, rep, err := supervisor.Run(context.Background(), supervisor.Pipeline{
		Threads: dp.tr.Threads, Original: dp.prog.F, LoopHeader: dp.prog.LoopHeader,
		RegOwner: dp.tr.RegOwner, Mem: dp.prog.Mem, Regs: dp.prog.Regs,
	}, pol)
	el := time.Since(start)
	if store != nil {
		_ = store.Delete(key) // the engine drops a finished request's entry too
	}
	if err != nil {
		return nil, rep, el
	}
	return res, rep, el
}

// ledger measures an untraced closed-loop window, then replays the same
// seeded requests one at a time, each through every layer in turn:
//
//	ServeHTTP on engine A                   http.codec_ms = A - B
//	Engine.Run on engine B                  engine.overhead_ms = B - compile - inner
//	compile chain, on the engine's misses   profile, core, psdswp, runtime.plan
//	supervisor.Run with a store (serve)     ckptstore.commit_ms = store - no store
//	supervisor.Run, no store (serve)        supervisor.barrier_ms = no store - raw
//	runtime.Run                             runtime.run_ms
//
// where inner is the supervised run with a store for serve and the raw
// run for churn. A and B are fresh engines warmed alike and fed the same
// sequence, so they hit and miss on the same requests. Means per request
// telescope: the self times add up to the replay's mean ServeHTTP time,
// and residual_ms, the untraced mean latency minus that, is what running
// nproc clients at once adds. A further runtime.Run with obs.Metrics
// attached gives the stage and queue breakdown and the tracing overhead.
func (b *serveBench) ledger(d time.Duration) (report, error) {
	var l layers
	mw := startMemWindow()
	snap0 := b.eng.Metrics().Snapshot()
	u := b.window(d/2, b.streams())
	snap1 := b.eng.Metrics().Snapshot()
	mw.stop(&l, u.ops)
	if len(u.lat) == 0 {
		return report{}, fmt.Errorf("no request succeeded in %v", d/2)
	}
	hits, misses := snap1.CacheHits-snap0.CacheHits, snap1.CacheMisses-snap0.CacheMisses
	l.cacheHit = share(hits, hits+misses)
	poolHits := snap1.PoolHits - snap0.PoolHits
	l.poolHit = share(poolHits, poolHits+snap1.PoolMisses-snap0.PoolMisses)
	l.compiles = float64(snap1.Compiles-snap0.Compiles) / float64(u.ops)
	l.opMs = mean(u.lat)

	engA, engB := newEngine(), newEngine()
	defer shutdown(engA)
	defer shutdown(engB)
	hA := engine.NewMux(engA)
	if err := b.warm(hA, false); err != nil {
		return report{}, err
	}
	if err := b.warm(engine.NewMux(engB), false); err != nil {
		return report{}, err
	}
	pipes := map[string]*direct{}
	store := ckptstore.NewMem()
	defer store.Close()
	streams := b.streams()
	var (
		httpSum, engSum, compileSum, innerSum, rawSum time.Duration
		raws, obsRaws                                 []float64
		ops, summed                                   int
	)
	round := b.clients * len(b.groups)
	start := time.Now()
	for ; ; ops++ {
		el := time.Since(start)
		// serve replays whole rounds, so every program weighs the same as
		// in the untraced window; a hard stop at d keeps the run bounded.
		if ops > 0 && el >= d/2 && (b.churn || ops%round == 0) || el >= d {
			break
		}
		p, req := streams[ops%b.clients].next()
		hs := post(hA, req)
		es := time.Now()
		resp, err := engB.Run(context.Background(), req)
		eLat := time.Since(es)
		eDigest := ""
		if err == nil {
			eDigest = resp.Digest
		}
		okHTTP := b.g.check(p.id, hs.digest)
		if !b.g.check(p.id, eDigest) || !okHTTP {
			continue
		}

		key := fmt.Sprintf("%s|t=%d|pack=%t|rep=%t", p.id, req.Threads, req.PackFlows, req.Replicate)
		miss := hs.cache == "miss"
		dp := pipes[key]
		var bt buildTimes
		if dp == nil || miss {
			if dp, bt, err = buildDirect(p, req); err != nil {
				return report{}, err
			}
			pipes[key] = dp
		}
		var inner time.Duration
		if dp.tr == nil {
			res, el := dp.runSeq()
			if !b.g.checkResult(p.id, res) {
				continue
			}
			l.interpMs += millis(el)
			l.instrs += float64(res.Threads[0].Steps)
			inner = el
		} else {
			res, raw := dp.runRaw(nil)
			okRaw := b.g.checkResult(p.id, res)
			m := obs.NewMetrics(len(dp.tr.Threads), dp.tr.NumQueues)
			res, obsRaw := dp.runRaw(m)
			if !b.g.checkResult(p.id, res) || !okRaw {
				continue
			}
			inner = raw
			if !b.churn {
				res, rep, noStore := dp.runSupervised(nil, "")
				okNoStore := b.g.checkResult(p.id, res) && rep != nil
				res, rep2, withStore := dp.runSupervised(store, fmt.Sprintf("%s.r%06d", p.id, ops))
				if !b.g.checkResult(p.id, res) || rep2 == nil || !okNoStore {
					continue
				}
				l.checkpoints += float64(rep.Checkpoints)
				l.commits += float64(rep2.DurableCommits)
				l.barrierMs += millis(noStore - raw)
				l.commitMs += millis(withStore - noStore)
				inner = withStore
			}
			rawSum += raw
			raws, obsRaws = append(raws, millis(raw)), append(obsRaws, millis(obsRaw))
			l.addStages(m)
		}
		summed++
		httpSum += hs.lat
		engSum += eLat
		if miss {
			compileSum += bt.total()
			bt.addTo(&l)
		}
		innerSum += inner
	}
	if summed == 0 {
		return report{}, fmt.Errorf("no replayed request succeeded")
	}
	l.runtimeMs = millis(rawSum)
	l.engineMs = millis(engSum - compileSum - innerSum)
	l.codecMs = millis(httpSum - engSum)
	l.scale(float64(summed))
	l.sim = b.sim
	// Tracing attaches only to the runtime, so a traced request would take
	// the untraced median plus the median cost obs.Metrics adds to a run.
	added := make([]float64, len(raws))
	for i := range raws {
		added[i] = obsRaws[i] - raws[i]
	}
	l.pipeUntraced, l.pipeTraced = mean(raws), mean(obsRaws)
	l.p50Untraced = median(u.lat)
	l.p50Traced = l.p50Untraced + median(added)
	r := l.report()
	r.note("untraced: %d requests from %d clients; replay: %d requests one at a time in %.3f s",
		u.ops, b.clients, ops, time.Since(start).Seconds())
	return r, nil
}

func share(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
