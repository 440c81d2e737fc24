package core

// Session snapshot/restore: the serialization layer that turns a stream's
// session into an explicit, versioned, bit-exact value — the primitive the
// cluster layer (internal/serve export/import, client/cluster migration)
// and crash recovery are built on.
//
// The contract is restore-then-replay equals never-having-snapshotted, byte
// for byte: a session restored from a snapshot produces exactly the
// decision/estimate sequence the original would have produced from that
// point, under any future Decide/Observe traffic. Two design decisions make
// that cheap to guarantee:
//
//   - The snapshot carries the session's whole state: the two Kalman filter
//     states (kalman.XiState/IdleState), the filter epoch, and the
//     served-decision count. A session memoizes nothing — every Decide
//     rescans — and the Scratch workspace is pure workspace that cannot
//     change a single decision, so there is nothing else to ship.
//   - The binary encoding is canonical and fixed-width: little-endian
//     float64 bit patterns (math.Float64bits), no JSON float formatting
//     anywhere near the hot path, so encode→decode→encode is the identity
//     on bytes and a snapshot's bytes are a stable artifact two processes
//     (or two software versions honoring the version field) agree on.
//
// The engine itself is NOT in the snapshot: both endpoints of a migration
// build their engines from the same (ProfileTable, Options) configuration,
// which the serving layer verifies out of band (platform/model preflight in
// cmd/alertload, stats probing in client/cluster).

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/alert-project/alert/internal/kalman"
)

// SnapshotVersion is the current SessionSnapshot wire version. Decoders
// reject snapshots from a different version instead of guessing: a session
// resumed from misread state would silently diverge, which is strictly
// worse than failing the migration.
const SnapshotVersion = 1

// SnapshotBinaryLen is the exact encoded length of a version-1 snapshot.
const SnapshotBinaryLen = 2 + 8 + 8 + 6*8 + 3*8 // version, epoch, decisions, xi, idle

// SessionSnapshot is the flat, versioned, serializable value of a Session's
// mutable state. It is engine-independent by construction: everything else
// a decision needs lives on the immutable shared Engine.
type SessionSnapshot struct {
	// Version is the snapshot format version (SnapshotVersion when produced
	// by Session.Snapshot).
	Version uint16
	// Epoch is the filter epoch: the Observe count plus one (no session
	// ever carries epoch 0, so Validate treats it as corruption).
	Epoch uint64
	// Decisions is how many Decide calls the session has served.
	Decisions int64
	// Xi and Idle are the two Kalman filter states.
	Xi   kalman.XiState
	Idle kalman.IdleState
}

// Snapshot captures the session's mutable state. The scan workspace is
// excluded (see the comment at the top of this file: it is pure
// recomputation, so dropping it is bit-exact). The session remains usable;
// Snapshot does not consume it.
func (s *Session) Snapshot() SessionSnapshot {
	return SessionSnapshot{
		Version:   SnapshotVersion,
		Epoch:     s.epoch,
		Decisions: int64(s.decisions),
		Xi:        s.xi.State(),
		Idle:      s.idle.State(),
	}
}

// RestoreSession rebuilds a session from a snapshot with a private scan
// workspace. The restored session continues the original's decision
// sequence bit-for-bit under identical traffic. The snapshot must come
// from a session of an identically configured engine (same profile table
// and options) — the filter parameters are read from this engine's options,
// not the snapshot.
func (e *Engine) RestoreSession(snap SessionSnapshot) (*Session, error) {
	return e.RestoreSessionWith(e.NewScratch(), snap)
}

// RestoreSessionWith is RestoreSession sharing an existing scan workspace,
// the restore-side companion of NewSessionWith (the serving layer restores
// imported sessions onto the owning shard's shared Scratch).
func (e *Engine) RestoreSessionWith(sc *Scratch, snap SessionSnapshot) (*Session, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	s := e.NewSessionWith(sc)
	s.xi = kalman.MakeXiFilterFromState(e.opts.Xi, snap.Xi)
	s.idle = kalman.MakeIdlePowerFilterFromState(e.opts.Idle, snap.Idle)
	s.epoch = snap.Epoch
	s.decisions = int(snap.Decisions)
	return s, nil
}

// Validate rejects snapshots no genuine session could have produced:
// unknown versions, the reserved epoch 0, negative counters, and non-finite
// filter state (Observe guards its inputs, so NaN/Inf here means corruption
// — restoring it would poison every subsequent prediction).
func (snap SessionSnapshot) Validate() error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, this build speaks %d", snap.Version, SnapshotVersion)
	}
	if snap.Epoch == 0 {
		return fmt.Errorf("core: snapshot epoch 0 is reserved (fresh sessions start at 1)")
	}
	if snap.Decisions < 0 || snap.Xi.N < 0 || snap.Idle.N < 0 {
		return fmt.Errorf("core: snapshot carries negative counters")
	}
	for _, v := range [...]float64{
		snap.Xi.K, snap.Xi.Q, snap.Xi.Y, snap.Xi.Mu, snap.Xi.Sigma2,
		snap.Idle.M, snap.Idle.Phi,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: snapshot carries non-finite filter state")
		}
	}
	if snap.Xi.Sigma2 < 0 || snap.Idle.M < 0 {
		return fmt.Errorf("core: snapshot carries negative variance")
	}
	return nil
}

// MarshalBinary encodes the snapshot in the canonical fixed-width layout:
// version (uint16 LE), epoch (uint64 LE), decisions (int64 LE), then the ξ
// state (K, Q, Y, Mu, Sigma2 as float64 bit patterns, N as int64) and the
// idle state (M, Phi, N) in field order. It never fails; the error is the
// encoding.BinaryMarshaler signature.
func (snap SessionSnapshot) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, SnapshotBinaryLen)
	b = binary.LittleEndian.AppendUint16(b, snap.Version)
	b = binary.LittleEndian.AppendUint64(b, snap.Epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(snap.Decisions))
	for _, v := range [...]float64{snap.Xi.K, snap.Xi.Q, snap.Xi.Y, snap.Xi.Mu, snap.Xi.Sigma2} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(snap.Xi.N))
	for _, v := range [...]float64{snap.Idle.M, snap.Idle.Phi} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(snap.Idle.N))
	return b, nil
}

// UnmarshalBinary decodes the canonical layout. It accepts exactly the
// bytes MarshalBinary produces — wrong length or unknown version is an
// error — and is a strict codec: accepted bytes decode to a snapshot whose
// re-encoding is byte-identical (float64 bit patterns, including any
// non-finite ones, pass through untouched; semantic validation is
// Validate's job at restore time). It never panics on arbitrary input
// (fuzzed by FuzzSnapshotRoundTrip).
func (snap *SessionSnapshot) UnmarshalBinary(data []byte) error {
	if len(data) != SnapshotBinaryLen {
		return fmt.Errorf("core: snapshot is %d bytes, want %d", len(data), SnapshotBinaryLen)
	}
	v := binary.LittleEndian.Uint16(data[0:2])
	if v != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, this build speaks %d", v, SnapshotVersion)
	}
	snap.Version = v
	snap.Epoch = binary.LittleEndian.Uint64(data[2:10])
	snap.Decisions = int64(binary.LittleEndian.Uint64(data[10:18]))
	f := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8])) }
	snap.Xi.K = f(18)
	snap.Xi.Q = f(26)
	snap.Xi.Y = f(34)
	snap.Xi.Mu = f(42)
	snap.Xi.Sigma2 = f(50)
	snap.Xi.N = int64(binary.LittleEndian.Uint64(data[58:66]))
	snap.Idle.M = f(66)
	snap.Idle.Phi = f(74)
	snap.Idle.N = int64(binary.LittleEndian.Uint64(data[82:90]))
	return nil
}
