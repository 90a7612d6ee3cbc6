package hw

import (
	"strings"
	"testing"
)

func TestLookupTopology(t *testing.T) {
	// Every advertised name must resolve, and aliases must resolve to
	// the same server as their canonical name.
	wantByName := map[string]string{
		"dgx1":          "DGX-1V",
		"dgx-1v":        "DGX-1V",
		"v100":          "DGX-1V",
		"dgx1-nvme":     "DGX-1V-nvme",
		"dgx2":          "DGX-2A100",
		"dgx-2a100":     "DGX-2A100",
		"a100":          "DGX-2A100",
		"dgx2-fastnvme": "DGX-2A100-fastnvme",
		"grace":         "GraceHopper",
		"gracehopper":   "GraceHopper",
		"gh200":         "GraceHopper",
	}
	for _, name := range Topologies.Names() {
		topo, err := LookupTopology(name)
		if err != nil {
			t.Fatalf("LookupTopology(%q): %v", name, err)
		}
		if want := wantByName[name]; topo.Name != want {
			t.Errorf("LookupTopology(%q).Name = %q, want %q", name, topo.Name, want)
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("LookupTopology(%q): invalid topology: %v", name, err)
		}
	}
	if len(Topologies.Names()) != len(wantByName) {
		t.Errorf("Topologies.Names() has %d entries, test covers %d", len(Topologies.Names()), len(wantByName))
	}
}

func TestLookupTopologyCaseInsensitive(t *testing.T) {
	topo, err := LookupTopology("DGX1")
	if err != nil {
		t.Fatalf("LookupTopology(DGX1): %v", err)
	}
	if topo.Name != "DGX-1V" {
		t.Errorf("LookupTopology(DGX1).Name = %q", topo.Name)
	}
}

// TestLookupTopologyUnknownListsNames pins the contract the CLIs rely
// on: an unknown name enumerates every valid one, like cluster.Fabrics.
func TestLookupTopologyUnknownListsNames(t *testing.T) {
	_, err := LookupTopology("dgx99")
	if err == nil {
		t.Fatal("LookupTopology(dgx99) succeeded")
	}
	for _, name := range Topologies.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid name %q", err, name)
		}
	}
}
