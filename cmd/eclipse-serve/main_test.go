package main

import (
	"strings"
	"testing"

	"eclipse/internal/serve"
)

// TestParseTenant covers the -tenant key=value syntax: every key, the
// defaults a missing key leaves, every bad value, unknown and repeated
// keys, and the old positional form, which must fail rather than
// re-map (x:1:8:1 would otherwise turn the cache on). Every error shows
// the syntax.
func TestParseTenant(t *testing.T) {
	valid := []struct {
		in   string
		want serve.TenantConfig
	}{
		{"name=gold", serve.TenantConfig{Name: "gold"}},
		{"name=gold,weight=4,cap=16,cache=off",
			serve.TenantConfig{Name: "gold", Weight: 4, QueueCap: 16, Cache: serve.CacheOff}},
		{"cache=on,name=b", serve.TenantConfig{Name: "b", Cache: serve.CacheOn}},
		{"weight=1,name=x:y", serve.TenantConfig{Name: "x:y", Weight: 1}},
	}
	for _, tc := range valid {
		got, err := parseTenant(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseTenant(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}

	bad := []struct{ in, why string }{
		{"", "is not key=value"},
		{"gold", "is not key=value"},
		{"gold:4", "positional"},
		{"x:1:8:1", "positional"},
		{"gold:4:16:2:on", "positional"},
		{"weight=4", "name is required"},
		{"name=", "bad name"},
		{"name=a,weight=0", "bad weight"},
		{"name=a,weight=-2", "bad weight"},
		{"name=a,weight=four", "bad weight"},
		{"name=a,cap=0", "bad cap"},
		{"name=a,cap=", "bad cap"},
		{"name=a,cache=1", "bad cache"},
		{"name=a,cache=default", "bad cache"},
		{"name=a,workers=2", "unknown key"},
		{"name=a,decodeworkers=2", "unknown key"},
		{"name=a,segments=2", "unknown key"},
		{"name=a,", "is not key=value"},
		{"name=a,name=b", "name given twice"},
		{"name=a,weight=1,weight=2", "weight given twice"},
	}
	for _, tc := range bad {
		_, err := parseTenant(tc.in)
		if err == nil {
			t.Errorf("parseTenant(%q) accepted", tc.in)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.why) || !strings.Contains(msg, tenantSyntax) {
			t.Errorf("parseTenant(%q) = %q; want it to say %q and show %s", tc.in, msg, tc.why, tenantSyntax)
		}
	}

	var flags tenantFlags
	if err := flags.Set("name=a,weight=2"); err != nil {
		t.Fatal(err)
	}
	if err := flags.Set("a:2"); err == nil {
		t.Fatal("Set accepted the positional form")
	}
	if len(flags) != 1 || flags[0].Weight != 2 {
		t.Errorf("flags = %+v, want one tenant of weight 2", flags)
	}
}
