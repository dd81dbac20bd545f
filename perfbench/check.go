package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"ascc/internal/cmp"
	"ascc/internal/harness"
)

// ledger counts operations — one simulation or one experiment table each —
// and the ones that failed: returned an error or failed an output check.
// A failure is recorded and reported, never fatal, so one bad output does
// not hide the rest of the run.
type ledger struct {
	attempted, failed int
	entries           []opEntry
}

type opEntry struct {
	Name   string `json:"name"`
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
}

// record counts one operation; err != nil marks it failed.
func (l *ledger) record(log io.Writer, name, digest string, err error) {
	l.attempted++
	e := opEntry{Name: name, Digest: digest}
	if err != nil {
		l.failed++
		e.Error = err.Error()
		if log != nil {
			fmt.Fprintf(log, "perfbench: FAILED %s: %v\n", name, err)
		}
	}
	l.entries = append(l.entries, e)
}

// conservation checks the statistics identities every simulation must
// satisfy on every core:
//
//	L1Accesses = L1Hits + L2Accesses
//	L2Accesses = L2LocalHits + L2RemoteHits + L2MemFills
//	OffChip    = L2MemFills + Writebacks + PrefIssued
func conservation(res cmp.Results) error {
	if len(res.Cores) == 0 {
		return fmt.Errorf("no cores in results")
	}
	for i, c := range res.Cores {
		switch {
		case c.Instructions == 0:
			return fmt.Errorf("core %d retired no instructions", i)
		case c.L1Accesses != c.L1Hits+c.L2Accesses:
			return fmt.Errorf("core %d: L1Accesses %d != L1Hits %d + L2Accesses %d", i, c.L1Accesses, c.L1Hits, c.L2Accesses)
		case c.L2Accesses != c.L2LocalHits+c.L2RemoteHits+c.L2MemFills:
			return fmt.Errorf("core %d: L2Accesses %d != local %d + remote %d + memory fills %d", i, c.L2Accesses, c.L2LocalHits, c.L2RemoteHits, c.L2MemFills)
		case c.OffChip != c.L2MemFills+c.Writebacks+c.PrefIssued:
			return fmt.Errorf("core %d: OffChip %d != memory fills %d + writebacks %d + prefetches %d", i, c.OffChip, c.L2MemFills, c.Writebacks, c.PrefIssued)
		case math.IsNaN(c.Cycles) || c.Cycles <= 0:
			return fmt.Errorf("core %d: cycles %v", i, c.Cycles)
		}
	}
	return nil
}

// resultsDigest is a digest of every field of a simulation's results,
// floats at full precision.
func resultsDigest(res cmp.Results) string {
	return digestOf(fmt.Sprintf("%+v", res))
}

// tableDigest is a digest of a rendered experiment table.
func tableDigest(t harness.Table) string { return digestOf(t.String()) }

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// goldenSeed is the seed the recorded digests were taken at. At any other
// seed only the seed-independent checks apply.
const goldenSeed = 1

//go:embed digests.json
var digestsJSON []byte

// goldenDigests maps workload -> output name -> digest at goldenSeed.
var goldenDigests = mustParseDigests(digestsJSON)

func mustParseDigests(data []byte) map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return m
}

// outputCheck compares one named output against the golden digest (at the
// golden seed) and against what the same output read earlier in this run.
type outputCheck struct {
	workload string
	seed     uint64
	golden   map[string]map[string]string
	seen     map[string]string
}

func newOutputCheck(workload string, seed uint64) *outputCheck {
	return &outputCheck{workload: workload, seed: seed, golden: goldenDigests, seen: map[string]string{}}
}

func (o *outputCheck) verify(name, digest string) error {
	if prev, ok := o.seen[name]; ok && prev != digest {
		return fmt.Errorf("output %s changed within the run: digest %s, earlier %s", name, digest, prev)
	}
	o.seen[name] = digest
	if o.seed != goldenSeed {
		return nil
	}
	want, ok := o.golden[o.workload][name]
	if !ok {
		return fmt.Errorf("no golden digest recorded for %s/%s", o.workload, name)
	}
	if want != digest {
		return fmt.Errorf("output %s: digest %s, golden %s", name, digest, want)
	}
	return nil
}

// checkResults records one simulation: conservation at any seed, digest
// against the golden and against earlier runs of the same simulation.
func (e *env) checkResults(name, output string, res cmp.Results) string {
	d := resultsDigest(res)
	err := conservation(res)
	if err == nil {
		err = e.out.verify(output, d)
	}
	e.ops.record(e.log, name, d, err)
	return d
}

// checkTable records one experiment table.
func (e *env) checkTable(name string, t harness.Table) string {
	d := tableDigest(t)
	e.ops.record(e.log, name, d, e.out.verify("table/"+name, d))
	return d
}

// aggCPI is a run's aggregate CPI: total cycles over total instructions.
func aggCPI(res cmp.Results) float64 {
	var cycles, instr float64
	for _, c := range res.Cores {
		cycles += c.Cycles
		instr += float64(c.Instructions)
	}
	return cycles / instr
}
