// Package units provides the shared scalar types used throughout the
// simulator: byte sizes, simulated time, bandwidths, and FLOP counts,
// together with parsing and human-readable formatting helpers.
//
// Keeping these as named types (rather than bare int64/float64) makes
// signatures self-documenting and prevents unit-mixing bugs such as
// passing a byte count where a duration is expected.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Bytes is a memory size or transfer size in bytes.
type Bytes int64

// Common byte sizes. These are binary (IEC) multiples, matching how GPU
// memory capacities are reported by CUDA tooling.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
)

// MB constructs a size from a (possibly fractional) number of mebibytes.
func MB(n float64) Bytes { return Bytes(n * float64(MiB)) }

// GB constructs a size from a (possibly fractional) number of gibibytes.
func GB(n float64) Bytes { return Bytes(n * float64(GiB)) }

// MiBf reports the size as a floating-point number of mebibytes.
func (b Bytes) MiBf() float64 { return float64(b) / float64(MiB) }

// GiBf reports the size as a floating-point number of gibibytes.
func (b Bytes) GiBf() float64 { return float64(b) / float64(GiB) }

// String formats the size with an adaptive unit, e.g. "1.50GiB".
func (b Bytes) String() string {
	switch {
	case b < 0:
		return "-" + (-b).String()
	case b >= TiB:
		return fmt.Sprintf("%.2fTiB", float64(b)/float64(TiB))
	case b >= GiB:
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(GiB))
	case b >= MiB:
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(MiB))
	case b >= KiB:
		return fmt.Sprintf("%.2fKiB", float64(b)/float64(KiB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// ParseBytes parses strings like "32GiB", "1.5GB", "216MB", or "1024".
// Decimal suffixes (KB/MB/GB/TB) are treated as their binary counterparts,
// which is the convention used throughout the paper's tables.
func ParseBytes(s string) (Bytes, error) {
	t := strings.TrimSpace(s)
	mult := Bytes(1)
	upper := strings.ToUpper(t)
	for _, suf := range []struct {
		name string
		m    Bytes
	}{
		{"TIB", TiB}, {"GIB", GiB}, {"MIB", MiB}, {"KIB", KiB},
		{"TB", TiB}, {"GB", GiB}, {"MB", MiB}, {"KB", KiB}, {"B", 1},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.m
			t = strings.TrimSpace(t[:len(t)-len(suf.name)])
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse %q as bytes: %v", s, err)
	}
	return Bytes(v * float64(mult)), nil
}

// Duration is simulated time in nanoseconds. It is a distinct type from
// time.Duration so that simulated and wall-clock time cannot be confused,
// but it uses the same resolution for familiarity.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Milliseconds constructs a duration from fractional milliseconds.
func Milliseconds(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// Seconds constructs a duration from fractional seconds.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// Secondsf reports the duration as fractional seconds.
func (d Duration) Secondsf() float64 { return float64(d) / float64(Second) }

// Millisecondsf reports the duration as fractional milliseconds.
func (d Duration) Millisecondsf() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration with an adaptive unit, e.g. "3.20ms".
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.2fus", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Bandwidth is a data-transfer rate in bytes per second.
type Bandwidth float64

// GBps constructs a bandwidth from gigabytes per second. Link bandwidths
// in vendor datasheets (e.g. "25 GB/s per NVLink") are decimal, so this
// uses 1e9, unlike the binary Bytes constructors.
func GBps(n float64) Bandwidth { return Bandwidth(n * 1e9) }

// GBpsf reports the bandwidth as decimal gigabytes per second.
func (bw Bandwidth) GBpsf() float64 { return float64(bw) / 1e9 }

// Gbps constructs a bandwidth from gigabits per second — the unit NIC
// and switch datasheets quote (a "100 Gbit/s" InfiniBand port moves
// 12.5 decimal gigabytes per second).
func Gbps(n float64) Bandwidth { return Bandwidth(n * 1e9 / 8) }

// Gbpsf reports the bandwidth as decimal gigabits per second.
func (bw Bandwidth) Gbpsf() float64 { return float64(bw) * 8 / 1e9 }

// String formats the bandwidth, e.g. "25.0GB/s".
func (bw Bandwidth) String() string {
	return fmt.Sprintf("%.1fGB/s", float64(bw)/1e9)
}

// BitString formats the bandwidth in network-link units, e.g.
// "100Gbit/s" for a NIC that String would render as "12.5GB/s".
// Sub-gigabit rates fall back to Mbit/s.
func (bw Bandwidth) BitString() string {
	bits := float64(bw) * 8
	if bits >= 1e9 || bits == 0 {
		return fmt.Sprintf("%gGbit/s", bits/1e9)
	}
	return fmt.Sprintf("%gMbit/s", bits/1e6)
}

// TransferTime computes how long moving size bytes takes at this
// bandwidth, ignoring latency. Zero or negative bandwidth yields an
// infinite duration sentinel (MaxDuration).
func (bw Bandwidth) TransferTime(size Bytes) Duration {
	if bw <= 0 {
		return MaxDuration
	}
	ns := float64(size) / float64(bw) * 1e9
	if ns >= float64(math.MaxInt64) {
		return MaxDuration
	}
	return Duration(ns)
}

// MaxDuration is the largest representable duration, used as an
// "effectively never" sentinel.
const MaxDuration Duration = math.MaxInt64

// FLOPs is a count of floating-point operations.
type FLOPs float64

// TFLOPs reports the count in units of 10^12 operations.
func (f FLOPs) TFLOPs() float64 { return float64(f) / 1e12 }

// String formats the count, e.g. "3.1TFLOPs".
func (f FLOPs) String() string {
	switch {
	case f >= 1e12:
		return fmt.Sprintf("%.2fTFLOPs", float64(f)/1e12)
	case f >= 1e9:
		return fmt.Sprintf("%.2fGFLOPs", float64(f)/1e9)
	case f >= 1e6:
		return fmt.Sprintf("%.2fMFLOPs", float64(f)/1e6)
	default:
		return fmt.Sprintf("%.0fFLOPs", float64(f))
	}
}

// FLOPSRate is a compute throughput in floating-point operations per
// second (note the capital S: operations-per-second, not a count).
type FLOPSRate float64

// TFLOPS constructs a rate from teraFLOPS.
func TFLOPS(n float64) FLOPSRate { return FLOPSRate(n * 1e12) }

// TFLOPSf reports the rate in teraFLOPS.
func (r FLOPSRate) TFLOPSf() float64 { return float64(r) / 1e12 }

// String formats the rate, e.g. "125.0TFLOPS".
func (r FLOPSRate) String() string {
	return fmt.Sprintf("%.1fTFLOPS", float64(r)/1e12)
}

// ComputeTime returns how long executing f operations takes at rate r.
// Zero or negative rates yield MaxDuration.
func (r FLOPSRate) ComputeTime(f FLOPs) Duration {
	if r <= 0 {
		return MaxDuration
	}
	ns := float64(f) / float64(r) * 1e9
	if ns >= float64(math.MaxInt64) {
		return MaxDuration
	}
	return Duration(ns)
}
