package main

import (
	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/ssl"
)

// hookOp names one coop.Policy method.
type hookOp uint8

const (
	hookName hookOp = iota
	hookOnL2Access
	hookRole
	hookReceivers
	hookOnSpillFail
	hookInsertPos
	hookSpillInsertPos
	hookAllowRespill
	hookSpillRequiresReuse
	hookSwapEnabled
	hookDemandVictimAllow
	hookSpillVictimAllow
	hookGuestVictim
	hookTick
	numHookOps
)

// hookRec is one recorded policy call with its arguments.
type hookRec struct {
	n    uint64 // Tick's access count
	set  int32
	c    int16
	op   hookOp
	flag bool // OnL2Access's hit, SpillInsertPos's guestReused
}

// hookRecorder is a coop.Policy decorator that forwards every call to the
// wrapped policy unchanged and records it: per-method call counts always,
// and the call sequence up to limit calls, for replay into a fresh policy.
// Forwarding is its only effect, so a run through it must produce the
// undecorated run's results bit for bit.
type hookRecorder struct {
	inner coop.Policy
	calls [numHookOps]uint64
	recs  []hookRec
	limit int
}

func newHookRecorder(inner coop.Policy, limit int) *hookRecorder {
	return &hookRecorder{inner: inner, limit: limit}
}

func (h *hookRecorder) add(r hookRec) {
	h.calls[r.op]++
	if len(h.recs) < h.limit {
		h.recs = append(h.recs, r)
	}
}

// total is the number of calls of any method.
func (h *hookRecorder) total() uint64 {
	var n uint64
	for _, c := range h.calls {
		n += c
	}
	return n
}

func (h *hookRecorder) Name() string {
	h.add(hookRec{op: hookName})
	return h.inner.Name()
}

func (h *hookRecorder) OnL2Access(c, set int, hit bool) {
	h.add(hookRec{op: hookOnL2Access, c: int16(c), set: int32(set), flag: hit})
	h.inner.OnL2Access(c, set, hit)
}

func (h *hookRecorder) Role(c, set int) ssl.Role {
	h.add(hookRec{op: hookRole, c: int16(c), set: int32(set)})
	return h.inner.Role(c, set)
}

func (h *hookRecorder) Receivers(c, set int) []int {
	h.add(hookRec{op: hookReceivers, c: int16(c), set: int32(set)})
	return h.inner.Receivers(c, set)
}

func (h *hookRecorder) OnSpillFail(c, set int) {
	h.add(hookRec{op: hookOnSpillFail, c: int16(c), set: int32(set)})
	h.inner.OnSpillFail(c, set)
}

func (h *hookRecorder) InsertPos(c, set int) cachesim.InsertPos {
	h.add(hookRec{op: hookInsertPos, c: int16(c), set: int32(set)})
	return h.inner.InsertPos(c, set)
}

func (h *hookRecorder) SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos {
	h.add(hookRec{op: hookSpillInsertPos, c: int16(c), set: int32(set), flag: guestReused})
	return h.inner.SpillInsertPos(c, set, guestReused)
}

func (h *hookRecorder) AllowRespill() bool {
	h.add(hookRec{op: hookAllowRespill})
	return h.inner.AllowRespill()
}

func (h *hookRecorder) SpillRequiresReuse() bool {
	h.add(hookRec{op: hookSpillRequiresReuse})
	return h.inner.SpillRequiresReuse()
}

func (h *hookRecorder) SwapEnabled() bool {
	h.add(hookRec{op: hookSwapEnabled})
	return h.inner.SwapEnabled()
}

func (h *hookRecorder) DemandVictimAllow(c, set int) func(way int) bool {
	h.add(hookRec{op: hookDemandVictimAllow, c: int16(c), set: int32(set)})
	return h.inner.DemandVictimAllow(c, set)
}

func (h *hookRecorder) SpillVictimAllow(c, set int) func(way int) bool {
	h.add(hookRec{op: hookSpillVictimAllow, c: int16(c), set: int32(set)})
	return h.inner.SpillVictimAllow(c, set)
}

func (h *hookRecorder) GuestVictim() coop.GuestVictimMode {
	h.add(hookRec{op: hookGuestVictim})
	return h.inner.GuestVictim()
}

func (h *hookRecorder) Tick(c int, accesses uint64) {
	h.add(hookRec{op: hookTick, c: int16(c), n: accesses})
	h.inner.Tick(c, accesses)
}

// Sinks keep replayed calls' results observable.
var (
	sinkRole  ssl.Role
	sinkInts  []int
	sinkPos   cachesim.InsertPos
	sinkBool  bool
	sinkAllow func(way int) bool
	sinkMode  coop.GuestVictimMode
	sinkName  string
)

// replayHooks issues a recorded call sequence to p, in order.
func replayHooks(p coop.Policy, recs []hookRec) {
	for _, r := range recs {
		c, set := int(r.c), int(r.set)
		switch r.op {
		case hookName:
			sinkName = p.Name()
		case hookOnL2Access:
			p.OnL2Access(c, set, r.flag)
		case hookRole:
			sinkRole = p.Role(c, set)
		case hookReceivers:
			sinkInts = p.Receivers(c, set)
		case hookOnSpillFail:
			p.OnSpillFail(c, set)
		case hookInsertPos:
			sinkPos = p.InsertPos(c, set)
		case hookSpillInsertPos:
			sinkPos = p.SpillInsertPos(c, set, r.flag)
		case hookAllowRespill:
			sinkBool = p.AllowRespill()
		case hookSpillRequiresReuse:
			sinkBool = p.SpillRequiresReuse()
		case hookSwapEnabled:
			sinkBool = p.SwapEnabled()
		case hookDemandVictimAllow:
			sinkAllow = p.DemandVictimAllow(c, set)
		case hookSpillVictimAllow:
			sinkAllow = p.SpillVictimAllow(c, set)
		case hookGuestVictim:
			sinkMode = p.GuestVictim()
		case hookTick:
			p.Tick(c, r.n)
		}
	}
}
