package fleet

import (
	"fmt"
	"strings"
)

// Fleet is one peer's view of a static-membership planning tier: the
// consistent-hash ring plus this process's own identity. A nil *Fleet
// means "not in a fleet" throughout the serving layer.
type Fleet struct {
	self string
	ring *Ring
}

// New builds a peer's fleet view. self must appear in members (after
// normalization).
func New(self string, members []string) (*Fleet, error) {
	ring, err := NewRing(members, 0)
	if err != nil {
		return nil, err
	}
	self = strings.TrimRight(strings.TrimSpace(self), "/")
	for _, m := range ring.Members() {
		if m == self {
			return &Fleet{self: self, ring: ring}, nil
		}
	}
	return nil, fmt.Errorf("fleet: self %q is not in the membership %v", self, ring.Members())
}

// Self is this process's own base URL, normalized.
func (f *Fleet) Self() string { return f.self }

// Size is the membership size.
func (f *Fleet) Size() int { return f.ring.Size() }

// Owner returns the peer that owns key on the ring.
func (f *Fleet) Owner(key string) string { return f.ring.Owner(key) }

// IsSelf reports whether peer is this process.
func (f *Fleet) IsSelf(peer string) bool {
	return strings.TrimRight(peer, "/") == f.self
}
