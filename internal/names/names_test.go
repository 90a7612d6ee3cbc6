package names

import (
	"reflect"
	"testing"
)

type color int

func (c color) String() string { return [...]string{"Red", "Green", "Blue", "Mauve"}[c] }

func colors() *Table[color] {
	return New[color]("paint: unknown color").
		Add("red", 0, "crimson").
		Add("green", 1).
		Add("blue", 2, "navy", "azure")
}

func TestNamesOrder(t *testing.T) {
	tab := colors()
	want := []string{"red", "green", "blue", "crimson", "navy", "azure"}
	if got := tab.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %q, want %q", got, want)
	}
	if got := tab.Values(); !reflect.DeepEqual(got, []color{0, 1, 2}) {
		t.Errorf("Values = %v", got)
	}
}

func TestLookup(t *testing.T) {
	tab := colors()
	for _, tc := range []struct {
		name string
		want color
	}{
		{"red", 0},
		{"RED", 0},
		{"  Red\t", 0},
		{"crimson", 0},
		{" CRIMSON ", 0},
		{"green", 1},
		{"navy", 2},
		{"Azure", 2},
	} {
		got, err := tab.Lookup(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("Lookup(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	tab := colors()
	for _, name := range []string{"mauve", "", "re d", "red-"} {
		got, err := tab.Lookup(name)
		if err == nil {
			t.Errorf("Lookup(%q) = %v, want an error", name, got)
			continue
		}
		want := `paint: unknown color "` + name + `" (valid names: red, green, blue, crimson, navy, azure)`
		if err.Error() != want {
			t.Errorf("Lookup(%q) error\n got %q\nwant %q", name, err, want)
		}
	}
}

func TestNameOfAndCheck(t *testing.T) {
	tab := colors()
	if got := NameOf(tab, 2); got != "blue" {
		t.Errorf("NameOf(2) = %q, want blue", got)
	}
	if got := NameOf(tab, 3); got != "Mauve" {
		t.Errorf("NameOf(unregistered) = %q, want the String form", got)
	}
	if err := Check(tab, 1, "job: unknown color", "colors"); err != nil {
		t.Errorf("Check(1) = %v", err)
	}
	err := Check(tab, 3, "job: unknown color", "colors")
	want := "job: unknown color Mauve (valid colors: red, green, blue, crimson, navy, azure)"
	if err == nil || err.Error() != want {
		t.Errorf("Check(3) = %v, want %q", err, want)
	}
}
