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
//   - The snapshot's body is the stream's State, byte for byte: the two
//     Kalman filter states (kalman.XiState/IdleState), the filter epoch, and
//     the served-decision count. A stream memoizes nothing — every Decide
//     rescans — and the Scratch workspace is pure workspace that cannot
//     change a single decision, so there is nothing else to ship, and
//     restoring is validating and copying.
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
)

// SnapshotVersion is the current SessionSnapshot wire version. Decoders
// reject snapshots from a different version instead of guessing: a session
// resumed from misread state would silently diverge, which is strictly
// worse than failing the migration. Version 2 dropped version 1's two
// unread observation counters (90 → 74 bytes); a version-1 blob fails both
// the length and the version check.
const SnapshotVersion = 2

// SnapshotBinaryLen is the exact encoded length of a version-2 snapshot.
const SnapshotBinaryLen = 2 + 8 + 8 + 5*8 + 2*8 // version, epoch, decisions, xi, idle

// SessionSnapshot is the versioned, serializable value of a stream's
// State. It is engine-independent by construction: everything else a
// decision needs lives on the immutable shared Engine.
type SessionSnapshot struct {
	// Version is the snapshot format version (SnapshotVersion when produced
	// by State.Snapshot).
	Version uint16
	State
}

// Snapshot captures the state as a current-version snapshot.
func (st State) Snapshot() SessionSnapshot {
	return SessionSnapshot{Version: SnapshotVersion, State: st}
}

// Validate rejects snapshots no genuine session could have produced:
// unknown versions, the reserved epoch 0, a negative decision count, and
// non-finite filter state (Observe guards its inputs, so NaN/Inf here means
// corruption — restoring it would poison every subsequent prediction).
func (snap SessionSnapshot) Validate() error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, this build speaks %d", snap.Version, SnapshotVersion)
	}
	if snap.Epoch == 0 {
		return fmt.Errorf("core: snapshot epoch 0 is reserved (fresh sessions start at 1)")
	}
	if snap.Decisions < 0 {
		return fmt.Errorf("core: snapshot carries a negative decision count")
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
// version (uint16 LE) at offset 0, epoch (uint64 LE) at 2, decisions
// (int64 LE) at 10, then the ξ state (K, Q, Y, Mu, Sigma2 at 18, 26, 34, 42,
// 50) and the idle state (M, Phi at 58, 66) as little-endian float64 bit
// patterns. It never fails; the error is the encoding.BinaryMarshaler
// signature.
func (snap SessionSnapshot) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, SnapshotBinaryLen)
	b = binary.LittleEndian.AppendUint16(b, snap.Version)
	b = binary.LittleEndian.AppendUint64(b, snap.Epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(snap.Decisions))
	for _, v := range [...]float64{snap.Xi.K, snap.Xi.Q, snap.Xi.Y, snap.Xi.Mu, snap.Xi.Sigma2, snap.Idle.M, snap.Idle.Phi} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
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
	snap.Idle.M = f(58)
	snap.Idle.Phi = f(66)
	return nil
}
