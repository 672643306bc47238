package dve

import "testing"

// FuzzParseScenario must never panic and must only produce valid configs.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		"20s-80z-1000c-500cp",
		"5s-15z-200c-100cp",
		"0s-0z-0c-0cp",
		"999999s-1z-1c-999999cp",
		"-1s-2z-3c-4cp",
		"s-z-c-cp",
		"",
		"20s-80z-1000c-500cp-extra",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseScenario(DefaultConfig(), s)
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("ParseScenario(%q) returned invalid config: %v", s, verr)
		}
		// Canonicalisation must be idempotent: rendering and re-parsing
		// yields the same configuration (the rendered text may differ from
		// the input, e.g. "00c" canonicalises to "0c").
		canon := scenario(cfg)
		cfg2, err := ParseScenario(DefaultConfig(), canon)
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", canon, err)
		}
		if cfg2 != cfg {
			t.Fatalf("canonical re-parse differs: %+v vs %+v", cfg2, cfg)
		}
	})
}
