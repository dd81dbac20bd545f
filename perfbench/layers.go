package main

import (
	"fmt"
	"math"

	"ascc/internal/cmp"
	"ascc/internal/harness"
	"ascc/internal/workload"
)

// maxHookRecords bounds the recorded hook sequence (16 bytes a call).
const maxHookRecords = 1 << 22

// hookSource is a recorded policy-hook sequence and what it takes to build
// a fresh policy of the same kind to replay it into.
type hookSource struct {
	*hookRecorder
	cores, sets, ways int
	seed, period      uint64
	instr             float64 // nominal instructions of the recorded run
}

// layerRuns are the simulated counts of the traced pass, taken from the
// Results of public Runner calls, plus the host time of the System.Run
// spans the benchmark itself made.
type layerRuns struct {
	sims float64
	sim  simCounts

	runS, runInstr, runL2 float64 // System.Run spans: host s, nominal instructions, L2 accesses
	probes, probeInstr    float64

	hooks        hookSource
	sampleErrPct float64
}

// simCounts sums Results counters over runs and cores (measured phase).
type simCounts struct {
	instr, l1Acc, l1Hits, l2Acc, local, remote, spillsOut, offChip, queue float64
}

func (s *simCounts) add(res cmp.Results) {
	for _, c := range res.Cores {
		s.instr += float64(c.Instructions)
		s.l1Acc += float64(c.L1Accesses)
		s.l1Hits += float64(c.L1Hits)
		s.l2Acc += float64(c.L2Accesses)
		s.local += float64(c.L2LocalHits)
		s.remote += float64(c.L2RemoteHits)
		s.spillsOut += float64(c.SpillsOut)
		s.offChip += float64(c.OffChip)
		s.queue += c.QueueDelay
	}
}

// addRun accounts one System.Run the benchmark timed: res is its Results,
// runS its host time and probes the machine's coherence probe count over
// warmup and measurement.
func (l *layerRuns) addRun(cfg harness.Config, res cmp.Results, runS float64, probes uint64) {
	var measured, l2 float64
	for _, c := range res.Cores {
		measured += float64(c.Instructions)
		l2 += float64(c.L2Accesses)
	}
	nominal := float64(len(res.Cores)) * float64(cfg.WarmupInstr+cfg.MeasureInstr)
	l.runS += runS
	l.runInstr += nominal
	// Results cover the measured phase only; the warm-up's L2 accesses are
	// extrapolated at the measured rate.
	l.runL2 += l2 * nominal / measured
	l.probes += float64(probes)
	l.probeInstr += nominal
}

func (l *layerRuns) metrics(m map[string]float64) {
	s := l.sim
	m["harness.sims"] = l.sims
	m["trace.refs_replayed"] = s.l1Acc
	m["cachesim.l1_hit_ratio"] = s.l1Hits / s.l1Acc
	m["cmp.run_s"] = l.runS
	m["cmp.instr_per_s"] = l.runInstr / l.runS
	m["cmp.ns_per_l2_access"] = l.runS * 1e9 / l.runL2
	m["cmp.l2_local_hit_ratio"] = s.local / s.l2Acc
	m["cmp.remote_hit_ratio"] = s.remote / s.l2Acc
	m["cmp.probes_per_kinstr"] = l.probes / l.probeInstr * 1000
	m["cmp.spills_per_kinstr"] = s.spillsOut / s.instr * 1000
	m["cmp.sample_cpi_err_pct"] = l.sampleErrPct
	h := l.hooks
	m["policies.hook_calls_per_kinstr"] = float64(h.total()) / h.instr * 1000
	// Every spill that reaches a receiver asks it for an insert position;
	// every one that finds none, or is not worth a peer's way, reports
	// OnSpillFail.
	accepted, failed := float64(h.calls[hookSpillInsertPos]), float64(h.calls[hookOnSpillFail])
	m["policies.spill_accept_ratio"] = accepted / (accepted + failed)
	m["mem.queue_cycles_per_access"] = s.queue / s.l2Acc
	m["mem.offchip_per_kinstr"] = s.offChip / s.instr * 1000
}

// recordHooks runs mix through Runner.RunMixWith under an AVGCC policy
// wrapped in the recording decorator; the output name ties the results to
// the undecorated run's, so a decorator that changed anything fails the
// digest comparison.
func recordHooks(e *env, r *harness.Runner, mix []int, output string, parent spanID) (hookSource, error) {
	cfg := r.Cfg
	sets, ways := cfg.L2Geometry()
	h := hookSource{cores: len(mix), sets: sets, ways: ways, seed: cfg.Seed, period: cfg.ResizePeriod()}
	pol, err := harness.NewPolicy(harness.PAVGCC, h.cores, sets, ways, h.seed, h.period)
	if err != nil {
		return h, err
	}
	h.hookRecorder = newHookRecorder(pol, maxHookRecords)
	h.instr = float64(len(mix)) * float64(cfg.WarmupInstr+cfg.MeasureInstr)
	var res cmp.Results
	e.tr.timed("harness.RunMixWith", parent, func(spanID) { res, err = r.RunMixWith(mix, h.hookRecorder) })
	if err != nil {
		e.ops.record(e.log, "recorded-hooks run", "", err)
		return h, nil
	}
	e.checkResults("recorded-hooks run (decorator transparency)", output, res)
	return h, nil
}

// runSystem builds mix's machine on r, runs it inside a cmp.Run span and
// accounts it.
func runSystem(e *env, r *harness.Runner, mix []int, output string, parent spanID, l *layerRuns) (cmp.Results, error) {
	var sys *cmp.System
	var err error
	e.tr.timed("harness.NewMixSystem", parent, func(spanID) { sys, err = r.NewMixSystem(mix, harness.PAVGCC) })
	if err != nil {
		return cmp.Results{}, err
	}
	var res cmp.Results
	d := e.tr.timed("cmp.Run", parent, func(spanID) { res = sys.ScaleSampled(sys.Run(r.Cfg.WarmupInstr, r.Cfg.MeasureInstr)) })
	e.checkResults("system run "+output, output, res)
	l.addRun(r.Cfg, res, d.Seconds(), sys.CoherenceProbes())
	l.sim.add(res)
	return res, nil
}

// sampleErr is the mean aggregate-CPI error, in percent, of 1/8 sampled
// runs against full-fidelity runs of the same simulations.
func sampleErr(e *env, full, sampled func(harness.PolicyID) (string, cmp.Results, error)) float64 {
	var sum float64
	var n int
	for _, pol := range []harness.PolicyID{harness.PDSR, harness.PAVGCC} {
		fn, fr, ferr := full(pol)
		sn, sr, serr := sampled(pol)
		for _, x := range []struct {
			name string
			res  cmp.Results
			err  error
		}{{fn, fr, ferr}, {sn, sr, serr}} {
			if x.err != nil {
				e.ops.record(e.log, "results "+x.name, "", x.err)
				return math.NaN()
			}
			e.checkResults("results "+x.name, "results/"+x.name, x.res)
		}
		f, s := aggCPI(fr), aggCPI(sr)
		sum += math.Abs(s-f) / f * 100
		n++
	}
	return sum / float64(n)
}

// ---- per-workload traced simulations ----

func (m *mix4Instance) layers(e *env, it iteration, parent spanID) (layerRuns, error) {
	var l layerRuns
	name := workload.MixName(mix4)
	if it.err != nil {
		return l, it.err
	}
	l.addRun(m.cfg, it.results, e.tr.duration(it.runSpan).Seconds(), it.sys.CoherenceProbes())
	l.sim.add(it.results)
	var err error
	if l.hooks, err = recordHooks(e, m.r, mix4, mix4Output, parent); err != nil {
		return l, err
	}
	sampled := m.pool.Runner(withSample(m.cfg, sampleDen))
	l.sampleErrPct = sampleErr(e,
		func(pol harness.PolicyID) (string, cmp.Results, error) {
			res, err := m.r.RunMix(mix4, pol)
			return name + "/" + string(pol), res, err
		},
		func(pol harness.PolicyID) (string, cmp.Results, error) {
			res, err := sampled.RunMix(mix4, pol)
			return name + "/1-8/" + string(pol), res, err
		})
	e.ops.record(e.log, "sampling accuracy "+name, "", checkSampleErr(l.sampleErrPct))
	l.sims = float64(m.r.Simulations() + sampled.Simulations())
	return l, nil
}

func withSample(cfg harness.Config, den int) harness.Config {
	cfg.SampleDen = den
	return cfg
}

func (s *storedInstance) layers(e *env, it iteration, parent spanID) (layerRuns, error) {
	var l layerRuns
	if it.err != nil {
		return l, it.err
	}
	l.sims = float64(it.sims)
	var err error
	if s.name == suiteSampled {
		r := it.pool.Runner(it.cfg)
		if _, err = runSystem(e, r, mix4, mix4Output, parent, &l); err != nil {
			return l, err
		}
		if l.hooks, err = recordHooks(e, r, mix4, mix4Output, parent); err != nil {
			return l, err
		}
		l.sampleErrPct = suiteCPIErr(it.tables)
		return l, nil
	}

	// wide-shared: the scaleout mix at 16 cores for host time, probes and
	// hooks, plus every multithreaded workload's counts.
	const cores = 16
	wide := it.cfg
	wide.Cores = cores
	r := it.pool.Runner(wide)
	output := fmt.Sprintf("results/%dx%s/%s", cores, workload.MixName(mix4), harness.PAVGCC)
	if _, err = runSystem(e, r, mix4, output, parent, &l); err != nil {
		return l, err
	}
	if l.hooks, err = recordHooks(e, r, workload.ExtendMix(mix4, cores), output, parent); err != nil {
		return l, err
	}
	mt := it.pool.Runner(mtConfig(it.cfg))
	mtSampled := it.pool.Runner(withSample(mtConfig(it.cfg), sampleDen))
	var errSum float64
	for _, p := range workload.MTProfiles() {
		res, err := mt.RunMT(p.Name, 4, harness.PAVGCC)
		if err != nil {
			e.ops.record(e.log, "results mt/"+p.Name, "", err)
			continue
		}
		l.sim.add(res)
		name := p.Name
		errSum += sampleErr(e,
			func(pol harness.PolicyID) (string, cmp.Results, error) {
				res, err := mt.RunMT(name, 4, pol)
				return "mt/" + name + "/" + string(pol), res, err
			},
			func(pol harness.PolicyID) (string, cmp.Results, error) {
				res, err := mtSampled.RunMT(name, 4, pol)
				return "mt/" + name + "/1-8/" + string(pol), res, err
			})
	}
	// Reported, not gated: the sampled fast path's accuracy is pinned for
	// multiprogrammed mixes only, and shared data widens the error.
	l.sampleErrPct = errSum / float64(len(workload.MTProfiles()))
	return l, nil
}
