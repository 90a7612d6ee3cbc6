// Package fleet coordinates N mpressd processes into one planning
// tier. Placement is a consistent-hash ring over a static membership
// list: every peer derives the same owner for every job's route key
// (runner.Job.RouteKey) with no coordination traffic, every job that
// shares a plan lands on one owner (so the plan is computed once
// fleet-wide), and membership changes move only the departed peer's
// share of the keyspace. internal/serve forwards requests to their
// owner over the ring; internal/serve/client routes by the same ring.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// DefaultVirtualNodes is the per-member virtual-node count. 128 points
// per peer keeps the share imbalance across a small fleet within a few
// percent while the ring stays tiny (a 16-peer ring is 2048 points).
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring over a static member list. Placement
// is fully deterministic: members are normalized and sorted before
// hashing, so every process that is handed the same membership — in
// any order — derives the identical ring and the identical owner for
// every key.
type Ring struct {
	members []string
	points  []point
}

type point struct {
	hash   uint64
	member int32
}

// NewRing builds a ring over members with vnodes virtual nodes per
// member (0 means DefaultVirtualNodes). Members are trimmed of
// trailing slashes, deduplicated and sorted; an empty list is an
// error.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	norm := NormalizeMembers(members)
	if len(norm) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one member")
	}
	r := &Ring{
		members: norm,
		points:  make([]point, 0, len(norm)*vnodes),
	}
	for i, m := range norm {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:   hash64(fmt.Sprintf("%s#%d", m, v)),
				member: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on member index so equal hashes (vanishingly rare
		// but possible) still order identically everywhere.
		return r.points[a].member < r.points[b].member
	})
	return r, nil
}

// NormalizeMembers canonicalizes a membership list: trims whitespace
// and trailing slashes, drops empties, deduplicates and sorts. Two
// lists naming the same peers in any order normalize identically.
func NormalizeMembers(members []string) []string {
	seen := make(map[string]bool, len(members))
	norm := make([]string, 0, len(members))
	for _, m := range members {
		m = strings.TrimRight(strings.TrimSpace(m), "/")
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		norm = append(norm, m)
	}
	sort.Strings(norm)
	return norm
}

// Members returns the normalized membership, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Size is the member count.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member that owns key: the first virtual node at or
// clockwise after the key's hash.
func (r *Ring) Owner(key string) string {
	return r.members[r.points[r.locate(key)].member]
}

// locate returns the index of the first point at or after the key's
// hash, wrapping at the top of the ring.
func (r *Ring) locate(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hash64 is the ring's point hash: the first 8 bytes of SHA-256,
// big-endian. SHA-256 keeps virtual nodes uniformly spread and is
// identical on every platform and Go release the fleet might mix.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
