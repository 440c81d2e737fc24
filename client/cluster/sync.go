package cluster

import (
	"context"
	"fmt"
	"sync"

	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/membership"
)

// This file is the membership follower: instead of an operator (or the
// load generator) calling AddMember/RemoveMember by hand, the Cluster
// fetches its members' /v1/membership views, merges them, and rebuilds the
// ring from the result. The caller decides when: whoever needs a fresh
// view calls SyncMembership. The server-side failure detector — direct
// heartbeat leases with a suspicion window — is the authority on liveness;
// the client never ejects a member because its own fetch failed, which is
// what keeps a slow-but-alive node from flapping in and out of the ring
// (each eject/re-add remaps streams and forks sessions, so flapping is the
// most expensive kind of wrong).

// SyncMembership runs one membership poll: fetch every current member's
// view, merge them (the membership lattice join, so any one up-to-date
// member is enough), and rebuild the member set:
//
//   - entries alive or suspect in the merged view are members — suspect
//     is the flap-damping window, a node the detector is unsure about
//     stays routable until the lease actually expires;
//   - entries dead in the merged view are ejected;
//   - current members no reachable view lists (static nodes) are kept:
//     only SetMembers or RemoveMember drops them.
//
// If no member serves a view at all the set is left untouched and the
// first fetch error is returned: a client that cannot see the cluster
// must not dismantle its routing state over it.
func (c *Cluster) SyncMembership(ctx context.Context) error {
	members := c.Members()
	views := make([]membership.View, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, addr := range members {
		cl, ok := c.Node(addr)
		if !ok {
			errs[i] = fmt.Errorf("%s no longer a member", addr)
			continue
		}
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			views[i], errs[i] = cl.Membership(ctx)
		}(i, cl)
	}
	wg.Wait()

	merged := membership.View{}
	var firstErr error
	reached := 0
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: membership sync via %s: %w", members[i], err)
			}
			continue
		}
		merged, _ = membership.MergeViews(merged, views[i])
		reached++
	}
	if reached == 0 {
		return firstErr
	}

	// routable[addr] is whether some merged entry lists addr alive or
	// suspect; an address no entry lists is absent.
	routable := make(map[string]bool, len(merged.Entries))
	for _, e := range merged.Entries {
		routable[e.Addr] = routable[e.Addr] || e.State != membership.StateDead
	}
	next := make([]string, 0, len(members))
	for _, m := range members {
		if r, listed := routable[m]; r || !listed {
			next = append(next, m)
		}
		delete(routable, m)
	}
	for _, e := range merged.Entries {
		if routable[e.Addr] {
			next = append(next, e.Addr) // discovered member (transitive join)
			delete(routable, e.Addr)
		}
	}
	if len(next) == 0 {
		// Every member dead: refuse to empty the set — something is more
		// wrong than routing can fix, and an empty ring just turns every
		// request into a routing error.
		return fmt.Errorf("cluster: membership sync would remove every member; keeping current set")
	}
	if sameSet(next, members) {
		return nil
	}
	return c.SetMembers(next)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]bool, len(a))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}
