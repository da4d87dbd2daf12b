// Package persist implements the paper's Engineering-challenges stack:
// an in-memory game state fronting a (simulated) commercial database,
// with a write-ahead option, snapshot checkpoints, crash recovery, and —
// the paper's research pitch — intelligent checkpointing that writes
// "when important events are completed, and not just at regular
// intervals" (games checkpoint as rarely as every 10 minutes, so a crash
// can force a player to repeat a difficult fight or lose a desirable
// reward).
package persist

import (
	"errors"
	"fmt"
)

// Action is one logged game action. Important marks the events players
// must not lose (boss kill, rare loot, level-up).
type Action struct {
	LSN       uint64
	Tick      int64
	Kind      string
	Important bool
	// Payload is opaque to the persistence layer.
	Payload int64
}

// StateSource is the in-memory state being persisted. Snapshot and
// Restore move whole-state images; Apply advances the state by one
// action.
type StateSource interface {
	Snapshot() ([]byte, error)
	Restore(snap []byte) error
	Apply(a Action) error
	// Reset clears the in-memory state, simulating a crash.
	Reset()
}

// Backing simulates the commercial database behind the in-memory layer.
// Rather than sleeping, it charges a deterministic virtual cost per
// operation so experiments measure overhead reproducibly:
//
//	snapshot: snapBaseCost + len(bytes)/snapBytesPerUnit
//	log batch: logBatchCost + len(batch)·logActionCost
type Backing struct {
	snap     []byte
	snapLSN  uint64
	snapTick int64
	hasSnap  bool
	log      []Action

	// SnapshotWrites, LogBatches, LogActions and CostUnits accumulate
	// the overhead metrics E7 reports.
	SnapshotWrites int64
	SnapshotBytes  int64
	LogBatches     int64
	LogActions     int64
	CostUnits      int64
}

// Virtual cost model constants: one unit ≈ one fixed-size DB write.
const (
	snapBaseCost     = 50
	snapBytesPerUnit = 256
	logBatchCost     = 5
	logActionCost    = 1
)

// WriteSnapshot replaces the durable snapshot (games keep the latest).
func (b *Backing) WriteSnapshot(snap []byte, lsn uint64, tick int64) {
	b.snap = append(b.snap[:0], snap...)
	b.snapLSN = lsn
	b.snapTick = tick
	b.hasSnap = true
	b.SnapshotWrites++
	b.SnapshotBytes += int64(len(snap))
	b.CostUnits += snapBaseCost + int64(len(snap))/snapBytesPerUnit
	// A checkpoint truncates the durable log prefix it covers.
	kept := b.log[:0]
	for _, a := range b.log {
		if a.LSN > lsn {
			kept = append(kept, a)
		}
	}
	b.log = kept
}

// AppendLog durably appends a batch of actions.
func (b *Backing) AppendLog(batch []Action) {
	b.log = append(b.log, batch...)
	b.LogBatches++
	b.LogActions += int64(len(batch))
	b.CostUnits += logBatchCost + int64(len(batch))*logActionCost
}

// LatestSnapshot returns the durable snapshot, if any.
func (b *Backing) LatestSnapshot() (snap []byte, lsn uint64, tick int64, ok bool) {
	return b.snap, b.snapLSN, b.snapTick, b.hasSnap
}

// LogAfter returns durable actions with LSN > lsn, in order.
func (b *Backing) LogAfter(lsn uint64) []Action {
	var out []Action
	for _, a := range b.log {
		if a.LSN > lsn {
			out = append(out, a)
		}
	}
	return out
}

// Policy decides when to checkpoint.
type Policy interface {
	Name() string
	// ShouldCheckpoint is consulted after each applied action.
	ShouldCheckpoint(a Action, ticksSinceCkpt int64) bool
}

// Periodic checkpoints every EveryTicks ticks — the state of practice the
// paper criticizes (intervals up to 10 minutes).
type Periodic struct {
	EveryTicks int64
}

// Name implements Policy.
func (p Periodic) Name() string { return fmt.Sprintf("periodic(%d)", p.EveryTicks) }

// ShouldCheckpoint implements Policy.
func (p Periodic) ShouldCheckpoint(_ Action, ticksSince int64) bool {
	return ticksSince >= p.EveryTicks
}

// EventKeyed is intelligent checkpointing: checkpoint immediately after
// important events, with MaxTicks as a fallback for quiet stretches.
type EventKeyed struct {
	MaxTicks int64
}

// Name implements Policy.
func (p EventKeyed) Name() string { return fmt.Sprintf("event-keyed(max %d)", p.MaxTicks) }

// ShouldCheckpoint implements Policy.
func (p EventKeyed) ShouldCheckpoint(a Action, ticksSince int64) bool {
	if a.Important {
		return true
	}
	return p.MaxTicks > 0 && ticksSince >= p.MaxTicks
}

// Manager wires the in-memory state, the checkpoint policy and the
// backing store together.
type Manager struct {
	src     StateSource
	backing *Backing
	policy  Policy

	// WALBatch enables write-ahead logging: actions are durably logged
	// in batches of this size before being considered applied. 0
	// disables the log (checkpoint-only persistence, the common game
	// configuration).
	WALBatch int

	walBuf   []Action
	lsn      uint64
	tick     int64
	ckptLSN  uint64
	ckptTick int64
	applied  []Action // in-memory history since last checkpoint (for loss accounting)
}

// NewManager builds a persistence manager over src.
func NewManager(src StateSource, backing *Backing, policy Policy) *Manager {
	return &Manager{src: src, backing: backing, policy: policy}
}

// Apply assigns the next LSN, applies the action to the in-memory state,
// logs it (if WAL is enabled), and checkpoints when the policy says so.
func (m *Manager) Apply(tick int64, kind string, important bool, payload int64) (Action, error) {
	m.lsn++
	m.tick = tick
	a := Action{LSN: m.lsn, Tick: tick, Kind: kind, Important: important, Payload: payload}
	if err := m.src.Apply(a); err != nil {
		return a, err
	}
	m.applied = append(m.applied, a)
	if m.WALBatch > 0 {
		m.walBuf = append(m.walBuf, a)
		if len(m.walBuf) >= m.WALBatch {
			m.backing.AppendLog(m.walBuf)
			m.walBuf = m.walBuf[:0]
		}
	}
	if m.policy.ShouldCheckpoint(a, tick-m.ckptTick) {
		if err := m.Checkpoint(); err != nil {
			return a, err
		}
	}
	return a, nil
}

// Checkpoint forces a snapshot now.
func (m *Manager) Checkpoint() error {
	snap, err := m.src.Snapshot()
	if err != nil {
		return err
	}
	// Flush any buffered WAL first so the snapshot's LSN watermark is
	// consistent with the durable log.
	if m.WALBatch > 0 && len(m.walBuf) > 0 {
		m.backing.AppendLog(m.walBuf)
		m.walBuf = m.walBuf[:0]
	}
	m.backing.WriteSnapshot(snap, m.lsn, m.tick)
	m.ckptLSN = m.lsn
	m.ckptTick = m.tick
	m.applied = m.applied[:0]
	return nil
}

// RecoveryReport quantifies a crash: what survived and what players lost.
type RecoveryReport struct {
	SnapshotLSN   uint64
	LostActions   int
	LostImportant int
	// LostTicks is the span of game time rolled back.
	LostTicks int64
}

// ErrNoState reports recovery with neither snapshot nor log.
var ErrNoState = errors.New("persist: nothing durable to recover from")

// Crash simulates a server crash: the in-memory state and the un-flushed
// WAL buffer vanish. It returns a report of the durable horizon computed
// against everything that had been applied.
func (m *Manager) Crash() RecoveryReport {
	rep := RecoveryReport{SnapshotLSN: m.ckptLSN}
	durable := m.ckptLSN
	if m.WALBatch > 0 {
		// Durable log extends past the snapshot, minus the lost buffer.
		logged := m.backing.LogAfter(m.ckptLSN)
		if n := len(logged); n > 0 {
			durable = logged[n-1].LSN
		}
	}
	for _, a := range m.applied {
		if a.LSN > durable {
			rep.LostActions++
			if a.Important {
				rep.LostImportant++
			}
		}
	}
	if rep.LostActions > 0 {
		// Ticks rolled back: from first lost action to crash.
		first := m.applied[len(m.applied)-rep.LostActions]
		rep.LostTicks = m.tick - first.Tick
	}
	m.src.Reset()
	m.walBuf = nil
	m.applied = nil
	return rep
}

// Recover restores the in-memory state from the durable snapshot and
// replays the durable log tail. It returns the number of actions
// replayed; what was lost is the preceding Crash's report.
func (m *Manager) Recover() (int, error) {
	snap, lsn, tick, ok := m.backing.LatestSnapshot()
	replayFrom := uint64(0)
	if ok {
		if err := m.src.Restore(snap); err != nil {
			return 0, err
		}
		replayFrom = lsn
		m.lsn = lsn
		m.tick = tick
	} else if m.WALBatch == 0 {
		return 0, ErrNoState
	}
	replayed := 0
	for _, a := range m.backing.LogAfter(replayFrom) {
		if err := m.src.Apply(a); err != nil {
			return replayed, err
		}
		replayed++
		m.lsn = a.LSN
		m.tick = a.Tick
	}
	m.ckptLSN = replayFrom
	m.ckptTick = m.tick
	return replayed, nil
}
