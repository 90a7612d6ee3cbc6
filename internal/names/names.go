// Package names is the one registry every preset name resolves
// through: topologies, fabrics, systems, schedules, strategies,
// machine types, model variants, model families and experiments. A
// Table keeps its entries in presentation order and matches a name one
// way everywhere: surrounding spaces trimmed, case ignored. A miss
// lists every valid name, so CLI help and errors cannot drift from the
// set of names that resolve.
package names

import (
	"fmt"
	"strings"
)

type entry[V any] struct {
	name    string
	aliases []string
	value   V
}

// Table is an ordered name → value registry.
type Table[V any] struct {
	prefix  string
	entries []entry[V]
}

// New returns an empty table whose misses read
// `<prefix> "name" (valid names: …)`.
func New[V any](prefix string) *Table[V] { return &Table[V]{prefix: prefix} }

// Add registers v under a canonical name and its aliases, after every
// entry already added, and returns t for chaining.
func (t *Table[V]) Add(name string, v V, aliases ...string) *Table[V] {
	t.entries = append(t.entries, entry[V]{name, aliases, v})
	return t
}

// Names lists every name Lookup accepts: the canonical names in order,
// then the aliases in order.
func (t *Table[V]) Names() []string {
	var out []string
	for _, e := range t.entries {
		out = append(out, e.name)
	}
	for _, e := range t.entries {
		out = append(out, e.aliases...)
	}
	return out
}

// Values returns the registered values in order.
func (t *Table[V]) Values() []V {
	out := make([]V, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.value
	}
	return out
}

// Lookup resolves a canonical name or alias, ignoring case and
// surrounding spaces.
func (t *Table[V]) Lookup(name string) (V, error) {
	key := strings.TrimSpace(name)
	for _, e := range t.entries {
		if strings.EqualFold(key, e.name) {
			return e.value, nil
		}
		for _, a := range e.aliases {
			if strings.EqualFold(key, a) {
				return e.value, nil
			}
		}
	}
	var zero V
	return zero, fmt.Errorf("%s %q (valid names: %s)", t.prefix, name, strings.Join(t.Names(), ", "))
}

// NameOf returns the canonical name v is registered under, or v's
// default format when it is not registered.
func NameOf[V comparable](t *Table[V], v V) string {
	for _, e := range t.entries {
		if e.value == v {
			return e.name
		}
	}
	return fmt.Sprint(v)
}

// Check is the gate for values that arrive without a name (hand-built
// configs, decoded JSON): nil when v is registered, otherwise the
// error `<prefix> v (valid <noun>: …)`.
func Check[V comparable](t *Table[V], v V, prefix, noun string) error {
	for _, e := range t.entries {
		if e.value == v {
			return nil
		}
	}
	return fmt.Errorf("%s %v (valid %s: %s)", prefix, v, noun, strings.Join(t.Names(), ", "))
}
