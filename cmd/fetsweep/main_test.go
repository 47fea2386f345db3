package main

import (
	"reflect"
	"strings"
	"testing"

	"passivespread"
)

func TestParseNsValid(t *testing.T) {
	got, err := parseNs(" 256, 1024 ,4096 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{256, 1024, 4096}) {
		t.Fatalf("parseNs = %v", got)
	}
}

func TestParseNsRejectsDegenerateGrids(t *testing.T) {
	cases := map[string]string{
		"empty flag":       "",
		"empty entry":      "256,,1024",
		"trailing comma":   "256,1024,",
		"not a number":     "256,many",
		"non-positive":     "256,0",
		"negative":         "-4",
		"below minimum":    "1,256",
		"duplicate":        "256,1024,256",
		"spaced duplicate": "256, 256",
	}
	for name, input := range cases {
		if got, err := parseNs(input); err == nil {
			t.Errorf("%s: parseNs(%q) accepted %v", name, input, got)
		}
	}
}

func TestParseElls(t *testing.T) {
	if got, err := parseElls(""); err != nil || got != nil {
		t.Fatalf("empty -ells = %v, %v", got, err)
	}
	got, err := parseElls("0,1,8")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 8}) {
		t.Fatalf("parseElls = %v", got)
	}
	for _, bad := range []string{"-1", "4,4", "4,", "x"} {
		if got, err := parseElls(bad); err == nil {
			t.Errorf("parseElls(%q) accepted %v", bad, got)
		}
	}
}

func TestParseEngines(t *testing.T) {
	got, err := parseEngines("fast,chain")
	if err != nil {
		t.Fatal(err)
	}
	want := []passivespread.EngineKind{passivespread.EngineAgentFast, passivespread.EngineMarkovChain}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseEngines = %v", got)
	}
	for _, bad := range []string{"", "fast,", "warp", "fast,fast"} {
		if got, err := parseEngines(bad); err == nil {
			t.Errorf("parseEngines(%q) accepted %v", bad, got)
		}
	}
}

// TestParseEnginesDisplayNames: -engines also takes display names, and
// a flag and a display name of one engine are duplicates.
func TestParseEnginesDisplayNames(t *testing.T) {
	got, err := parseEngines("agent-fast,aggregate")
	if err != nil {
		t.Fatal(err)
	}
	want := []passivespread.EngineKind{passivespread.EngineAgentFast, passivespread.EngineAggregate}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseEngines = %v", got)
	}
	if _, err := parseEngines("fast,agent-fast"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf(`parseEngines("fast,agent-fast") = %v, want a duplicate error`, err)
	}
}

func TestParseScenarios(t *testing.T) {
	got, err := parseScenarios("worst-case,noisy")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "worst-case" || got[1].Name != "noisy" {
		t.Fatalf("parseScenarios = %+v", got)
	}
	for _, bad := range []string{"", "worst-case,", "no-such", "noisy,noisy"} {
		if got, err := parseScenarios(bad); err == nil {
			t.Errorf("parseScenarios(%q) accepted %v", bad, got)
		}
	}
}
