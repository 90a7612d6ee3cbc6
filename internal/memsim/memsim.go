// Package memsim models memory capacity during simulation: per-device
// GPU memory accounting with out-of-memory detection, and the host
// pinned-memory pool MPress uses as swap space (paper Sec. III-E,
// "Memory management").
//
// Like the rest of the simulator, no payload bytes are stored — only
// sizes. Allocations are named so OOM reports can say what overflowed.
package memsim

import (
	"fmt"
	"sort"

	"mpress/internal/units"
)

// OOMError reports an allocation that exceeded a device's capacity —
// the simulator's version of CUDA's out-of-memory error, rendered as
// the red crosses in the paper's Fig. 7.
type OOMError struct {
	Device    string
	Requested units.Bytes
	InUse     units.Bytes
	Capacity  units.Bytes
	What      string
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("memsim: %s out of memory allocating %v for %q (in use %v of %v)",
		e.Device, e.Requested, e.What, e.InUse, e.Capacity)
}

// Device tracks one memory device (a GPU's HBM, host DRAM, or an NVMe
// namespace): current usage, high-water mark, and capacity.
type Device struct {
	name     string
	capacity units.Bytes
	inUse    units.Bytes
	peak     units.Bytes
	allocs   int64
	frees    int64
	// strict disables capacity checks when false (used by planning
	// passes that need to measure demand beyond capacity).
	strict bool
}

// NewDevice creates a device with the given capacity. A zero or
// negative capacity means "unbounded" and disables OOM checks.
func NewDevice(name string, capacity units.Bytes) *Device {
	return &Device{name: name, capacity: capacity, strict: capacity > 0}
}

// Name returns the device's label.
func (d *Device) Name() string { return d.name }

// Capacity returns the configured capacity (0 = unbounded).
func (d *Device) Capacity() units.Bytes { return d.capacity }

// InUse returns current usage.
func (d *Device) InUse() units.Bytes { return d.inUse }

// Peak returns the high-water mark.
func (d *Device) Peak() units.Bytes { return d.peak }

// Alloc reserves size bytes tagged what. It returns an *OOMError if
// the device is strict and the allocation would exceed capacity.
func (d *Device) Alloc(size units.Bytes, what string) error {
	if size < 0 {
		panic(fmt.Sprintf("memsim: negative allocation %d on %s", size, d.name))
	}
	if d.strict && d.inUse+size > d.capacity {
		return &OOMError{
			Device:    d.name,
			Requested: size,
			InUse:     d.inUse,
			Capacity:  d.capacity,
			What:      what,
		}
	}
	d.inUse += size
	d.allocs++
	if d.inUse > d.peak {
		d.peak = d.inUse
	}
	return nil
}

// Release returns size bytes. Releasing more than is in use panics —
// it always indicates an accounting bug in the caller.
func (d *Device) Release(size units.Bytes) {
	if size < 0 {
		panic(fmt.Sprintf("memsim: negative release %d on %s", size, d.name))
	}
	if size > d.inUse {
		panic(fmt.Sprintf("memsim: %s releasing %v with only %v in use", d.name, size, d.inUse))
	}
	d.inUse -= size
	d.frees++
}

// Stats summarizes a device's activity.
type Stats struct {
	Name     string
	Capacity units.Bytes
	InUse    units.Bytes
	Peak     units.Bytes
	Allocs   int64
	Frees    int64
}

// Stats returns a snapshot of counters.
func (d *Device) Stats() Stats {
	return Stats{
		Name:     d.name,
		Capacity: d.capacity,
		InUse:    d.inUse,
		Peak:     d.peak,
		Allocs:   d.allocs,
		Frees:    d.frees,
	}
}

// PinnedPool models the host pinned-memory pool of Sec. III-E: pinned
// buffers are expensive to create, so the pool retains freed buffers
// and reuses the smallest sufficient one (best fit).
type PinnedPool struct {
	host *Device
	// free holds retained buffer sizes, sorted ascending.
	free []units.Bytes
}

// NewPinnedPool creates a pool drawing from host.
func NewPinnedPool(host *Device) *PinnedPool {
	return &PinnedPool{host: host}
}

// Get acquires a pinned buffer of at least size bytes: the smallest
// retained one that fits (no new host allocation), otherwise a new
// buffer allocated from host memory.
func (p *PinnedPool) Get(size units.Bytes) (units.Bytes, error) {
	i := sort.Search(len(p.free), func(j int) bool { return p.free[j] >= size })
	if i < len(p.free) {
		buf := p.free[i]
		p.free = append(p.free[:i], p.free[i+1:]...)
		return buf, nil
	}
	if err := p.host.Alloc(size, "pinned buffer"); err != nil {
		return 0, err
	}
	return size, nil
}

// Put returns a buffer (by its actual size, as returned from Get) to
// the pool for reuse. The buffer stays allocated in host memory.
func (p *PinnedPool) Put(size units.Bytes) {
	i := sort.Search(len(p.free), func(j int) bool { return p.free[j] >= size })
	p.free = append(p.free, 0)
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = size
}
