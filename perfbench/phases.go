package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the timed phase runs on the last instance.
const setupRepeats = 3

// setUp builds the workload setupRepeats times and keeps the last instance.
func setUp(e *env, w workloadDef, rec *record, parent spanID, repeats int) (instance, error) {
	var inst instance
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		quiesce()
		var err error
		d := e.tr.timed("perfbench.setup", parent, func(id spanID) { inst, err = w.setup(e, id) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, d.Seconds())
	}
	return inst, nil
}

// quiesce collects garbage and returns it to the OS, then restarts the
// resident high-water mark, so the next phase is measured from a clean
// heap.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// timedRep is one timed repetition.
type timedRep struct {
	it         iteration
	wall, cpu  float64
	peakRSSMiB float64
}

// timeOnce runs one repetition and measures it.
func timeOnce(e *env, inst instance, tr *tracer, parent spanID) timedRep {
	quiesce()
	c0 := cpuSeconds()
	t0 := time.Now()
	it := inst.iterate(e, tr, parent)
	wall := time.Since(t0).Seconds()
	return timedRep{it: it, wall: wall, cpu: cpuSeconds() - c0, peakRSSMiB: peakRSSMB()}
}

// timedRun is the untraced run: set-up, then repetitions while the next one
// still fits in the time budget, then the end-to-end metrics.
func timedRun(e *env, w workloadDef, rec *record) (map[string]float64, error) {
	e.out = newOutputCheck(w.name, e.seed)
	inst, err := setUp(e, w, rec, 0, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	var peak float64
	start := time.Now()
	for i := 0; ; i++ {
		r := timeOnce(e, inst, nil, 0)
		inst.check(e, r.it)
		rec.WallS = append(rec.WallS, r.wall)
		rec.CPUS = append(rec.CPUS, r.cpu)
		if i == 0 {
			// Later repetitions inherit the store mappings the harness
			// keeps for the process lifetime; the first is every run's.
			peak = r.peakRSSMiB
		}
		if time.Since(start).Seconds()+median(rec.WallS) > e.seconds {
			break
		}
	}
	rec.Outputs = e.out.seen
	return map[string]float64{
		"wall_s":      median(rec.WallS),
		"setup_s":     median(rec.SetupS),
		"cpu_s":       median(rec.CPUS),
		"peak_rss_mb": peak,
	}, nil
}

// tracedRun is the traced pass: one set-up, two untraced repetitions and a
// traced one (its difference to the second is the tracing overhead), the
// simulated-count runs, and the isolated layer drills, all recorded as
// spans.
func tracedRun(e *env, w workloadDef, rec *record) (map[string]float64, error) {
	e.out = newOutputCheck(w.name, e.seed)
	root := e.tr.begin("perfbench."+w.name, 0)
	inst, err := setUp(e, w, rec, root, 1)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	var first, plain timedRep
	// A first repetition in a process runs slower than later ones (the
	// stored workloads by up to a fifth), so the overhead compares the
	// second and third.
	for _, r := range []*timedRep{&first, &plain} {
		*r = timeOnce(e, inst, nil, 0)
		inst.check(e, r.it)
		r.it = iteration{} // let its pool go before the next repetition
	}
	var traced timedRep
	e.tr.timed("perfbench.iteration", root, func(id spanID) { traced = timeOnce(e, inst, e.tr, id) })
	// check compares every output with the untraced repetition's.
	inst.check(e, traced.it)
	rec.WallS = []float64{first.wall, plain.wall, traced.wall}
	rec.CPUS = []float64{first.cpu, plain.cpu, traced.cpu}

	m := map[string]float64{
		"harness.pool_util": traced.cpu / (traced.wall * float64(e.slots)),
	}
	var runs layerRuns
	e.tr.timed("perfbench.simulations", root, func(id spanID) { runs, err = inst.layers(e, traced.it, id) })
	if err != nil {
		return nil, err
	}
	runs.metrics(m)
	var d drillTotals
	e.tr.timed("perfbench.drills", root, func(id spanID) { d, err = runDrills(e, inst.drills(), runs.hooks, id) })
	if err != nil {
		return nil, err
	}
	d.metrics(m)

	e.tr.end(root)
	rec.Outputs = e.out.seen
	rec.Details = map[string]float64{
		"trace_overhead_s":  traced.wall - plain.wall,
		"untraced_wall_s":   plain.wall,
		"traced_wall_s":     traced.wall,
		"hook_calls_record": float64(len(runs.hooks.recs)),
	}
	rec.Spans = e.tr.export()
	rec.Layers = layerTotals(rec.Spans)
	return m, nil
}
