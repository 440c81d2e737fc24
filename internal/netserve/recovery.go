package netserve

import "github.com/alert-project/alert"

// Recovery is the self-healing hook the front end delegates to
// (implemented by internal/selfheal.Manager; an interface here because
// the import direction is fixed — selfheal dials peers through the client
// wire types, so netserve can never import it). The front end calls it
// for three things: a replica PUT (StoreReplica), a peer's ownership
// claim (HandleClaim) or a session import (AnnounceImport), and the
// restoring check on every decide and observe (Restoring). When nil, the
// replica and claim endpoints 404 and no restoring holds apply — a node
// without self-healing behaves exactly as before.
type Recovery interface {
	// Restoring reports whether a stream's session is currently being
	// restored from a replicated checkpoint. While true, decides and
	// observes for the stream are shed with 503 + Retry-After: the
	// failover window's bounded, hinted shed. Requests are never lost
	// after acceptance — they are refused before touching any state.
	Restoring(stream int) bool
	// StoreReplica saves a peer's replicated checkpoint of a stream it
	// owns. decisions is the snapshot's decision count (its freshness).
	StoreReplica(stream int, owner string, decisions int64, snap alert.SessionSnapshot)
	// HandleClaim answers a peer's ownership claim for a stream it just
	// imported or restored. superseded=true means this node holds a
	// session that outranks the claim (the claimant must evict its copy);
	// otherwise any local session that the claim outranks has been
	// evicted before returning. local is this node's session decision
	// count at answer time (-1 when it holds none).
	HandleClaim(stream int, claimant, kind string, decisions int64) (superseded bool, local int64)
	// AnnounceImport broadcasts an ownership claim for a session this
	// node just imported over the wire (PUT /v1/streams/{id}), resolving
	// any concurrent failover restore of the same stream. It returns true
	// if a peer's session outranked ours — the import has been evicted
	// and the caller must report the conflict.
	AnnounceImport(stream int, decisions int64) (superseded bool)
}

// Claim kinds: how the claimant came to hold the session it is claiming.
// At equal decision counts an import (a deliberate migration) outranks a
// restore (a failover guess from a replica that is by construction no
// fresher than any export), and equal kinds fall back to the higher node
// id — a total order, so concurrent claims always leave exactly one
// holder.
const (
	ClaimKindImport  = "import"
	ClaimKindRestore = "restore"
)
