package memsim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"mpress/internal/units"
)

func TestAllocReleasePeak(t *testing.T) {
	d := NewDevice("gpu0", 100)
	if err := d.Alloc(60, "a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(30, "b"); err != nil {
		t.Fatal(err)
	}
	if d.InUse() != 90 || d.Peak() != 90 {
		t.Errorf("inUse=%d peak=%d", d.InUse(), d.Peak())
	}
	d.Release(60)
	if d.InUse() != 30 || d.Peak() != 90 {
		t.Errorf("after release: inUse=%d peak=%d", d.InUse(), d.Peak())
	}
	st := d.Stats()
	if st.Allocs != 2 || st.Frees != 1 || st.Name != "gpu0" {
		t.Errorf("stats = %+v", st)
	}
}

func TestOOM(t *testing.T) {
	d := NewDevice("gpu1", 100)
	d.MustAlloc(80, "base")
	err := d.Alloc(40, "activation t3")
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want OOMError, got %v", err)
	}
	if oom.Device != "gpu1" || oom.Requested != 40 || oom.InUse != 80 || oom.Capacity != 100 {
		t.Errorf("oom fields = %+v", oom)
	}
	if !strings.Contains(oom.Error(), "activation t3") {
		t.Errorf("error message should name the allocation: %v", oom)
	}
	// Failed allocation must not change usage.
	if d.InUse() != 80 {
		t.Errorf("inUse after failed alloc = %d", d.InUse())
	}
}

func TestUnboundedDevice(t *testing.T) {
	d := NewDevice("host", 0)
	if err := d.Alloc(units.Bytes(1)<<50, "huge"); err != nil {
		t.Fatalf("unbounded device must not OOM: %v", err)
	}
}

func TestReleaseTooMuchPanics(t *testing.T) {
	d := NewDevice("gpu", 100)
	d.MustAlloc(10, "x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on over-release")
		}
	}()
	d.Release(20)
}

func TestNegativeAllocPanics(t *testing.T) {
	d := NewDevice("gpu", 100)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative alloc")
		}
	}()
	_ = d.Alloc(-1, "bad")
}

func TestMustAllocPanicsOnOOM(t *testing.T) {
	d := NewDevice("gpu", 10)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.MustAlloc(20, "x")
}

func TestPinnedPoolReuse(t *testing.T) {
	host := NewDevice("host", 1000)
	p := NewPinnedPool(host)
	b1, err := p.Get(100)
	if err != nil || b1 != 100 || host.InUse() != 100 {
		t.Fatalf("Get = %d, %v; host in use %d", b1, err, host.InUse())
	}
	// A returned buffer stays allocated in host memory.
	p.Put(b1)
	if host.InUse() != 100 {
		t.Errorf("host in use after Put = %d, want 100", host.InUse())
	}
	// A smaller request reuses the retained 100-byte buffer: host
	// usage and peak are unchanged by the reuse.
	b2, err := p.Get(50)
	if err != nil || b2 != 100 {
		t.Fatalf("Get(50) = %d, %v; want reused 100", b2, err)
	}
	if host.InUse() != 100 || host.Peak() != 100 {
		t.Errorf("host in use/peak = %d/%d, want 100/100", host.InUse(), host.Peak())
	}
	// With the pool empty again, a request allocates afresh.
	if _, err := p.Get(50); err != nil || host.InUse() != 150 {
		t.Errorf("fresh Get: %v, host in use %d, want 150", err, host.InUse())
	}
}

func TestPinnedPoolBestFit(t *testing.T) {
	host := NewDevice("host", 0)
	p := NewPinnedPool(host)
	big, _ := p.Get(300)
	small, _ := p.Get(100)
	p.Put(big)
	p.Put(small)
	got, _ := p.Get(80)
	if got != 100 || host.InUse() != 400 {
		t.Errorf("best fit picked %d (host in use %d), want the retained 100 (400)", got, host.InUse())
	}
}

func TestPinnedPoolOOMPropagates(t *testing.T) {
	host := NewDevice("host", 50)
	p := NewPinnedPool(host)
	if _, err := p.Get(100); err == nil {
		t.Error("expected OOM from host")
	}
}

// Property: any interleaving of allocs and releases keeps
// peak >= inUse and never lets a strict device exceed capacity.
func TestDeviceInvariants(t *testing.T) {
	f := func(ops []int16) bool {
		d := NewDevice("g", 1000)
		var live []units.Bytes
		for _, op := range ops {
			if op >= 0 {
				size := units.Bytes(op % 500)
				if d.Alloc(size, "x") == nil {
					live = append(live, size)
				}
			} else if len(live) > 0 {
				d.Release(live[len(live)-1])
				live = live[:len(live)-1]
			}
			if d.InUse() > 1000 || d.Peak() < d.InUse() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
