package core

import "testing"

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig(0.1, 3, 100)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	base := DefaultConfig(0.1, 3, 100)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"epsilon zero", func(c *Config) { c.Epsilon = 0 }},
		{"epsilon one", func(c *Config) { c.Epsilon = 1 }},
		{"epsilon negative", func(c *Config) { c.Epsilon = -0.5 }},
		{"kappa negative", func(c *Config) { c.Kappa = -1 }},
		{"kappa zero", func(c *Config) { c.Kappa = 0 }},
		{"tguess zero", func(c *Config) { c.TGuess = 0 }},
		{"cr zero", func(c *Config) { c.CR = 0 }},
		{"cl negative", func(c *Config) { c.CL = -1 }},
		{"cs zero", func(c *Config) { c.CS = 0 }},
		{"groups negative", func(c *Config) { c.Groups = -2 }},
		{"bad rule", func(c *Config) { c.Rule = AssignmentRule(99) }},
	}
	for _, c := range cases {
		cfg := base
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestAssignmentRuleString(t *testing.T) {
	if RuleLowestCount.String() != "lowest-triangle-count" ||
		RuleNone.String() != "none" ||
		RuleLowestDegree.String() != "lowest-degree" {
		t.Error("unexpected rule strings")
	}
	if AssignmentRule(42).String() == "" {
		t.Error("unknown rule should still render")
	}
}

func TestSampleSizeFormulas(t *testing.T) {
	cfg := DefaultConfig(0.1, 4, 1000)
	cfg.CR, cfg.CL, cfg.CS = 1, 1, 1
	m := 10000
	// r = m·κ/T = 10000·4/1000 = 40.
	if got := cfg.sampleSizeR(m); got != 40 {
		t.Errorf("sampleSizeR = %d, want 40", got)
	}
	// ℓ = m·dR/(r·T) with dR=200, r=40: 10000·200/(40·1000) = 50.
	if got := cfg.sampleSizeL(m, 40, 200); got != 50 {
		t.Errorf("sampleSizeL = %d, want 50", got)
	}
	// s = m·κ/T = 40.
	if got := cfg.sampleSizeS(m); got != 40 {
		t.Errorf("sampleSizeS = %d, want 40", got)
	}
}

func TestSampleSizeClamping(t *testing.T) {
	cfg := DefaultConfig(0.1, 1000, 1)
	m := 50
	// Formula would be enormous; r is clamped to m.
	if got := cfg.sampleSizeR(m); got != m {
		t.Errorf("sampleSizeR clamp = %d, want %d", got, m)
	}
	cfg2 := DefaultConfig(0.1, 1, 1<<40)
	if got := cfg2.sampleSizeR(m); got != 1 {
		t.Errorf("tiny r should clamp to 1, got %d", got)
	}
	if got := cfg2.sampleSizeL(m, 1, 0); got != 1 {
		t.Errorf("dR=0 should give ℓ=1, got %d", got)
	}
	if got := cfg2.sampleSizeS(m); got != 1 {
		t.Errorf("tiny s should clamp to 1, got %d", got)
	}
}

func TestSampleSizeOverrides(t *testing.T) {
	cfg := DefaultConfig(0.1, 4, 1000)
	cfg.ROverride, cfg.LOverride, cfg.SOverride = 7, 9, 11
	if cfg.sampleSizeR(100) != 7 || cfg.sampleSizeL(100, 7, 50) != 9 || cfg.sampleSizeS(100) != 11 {
		t.Error("overrides not honored")
	}
	// ROverride larger than m clamps to m.
	cfg.ROverride = 1000
	if cfg.sampleSizeR(100) != 100 {
		t.Error("ROverride should clamp to m")
	}
}

func TestThresholds(t *testing.T) {
	cfg := DefaultConfig(0.25, 4, 100)
	m := 1000
	// heavy threshold = m·κ²/(ε²·T) = 1000·16/(0.0625·100) = 2560.
	if got := cfg.heavyEdgeDegreeThreshold(m); got != 2560 {
		t.Errorf("heavyEdgeDegreeThreshold = %v, want 2560", got)
	}
	// cutoff = κ/(2ε) = 4/0.5 = 8.
	if got := cfg.assignmentCutoff(); got != 8 {
		t.Errorf("assignmentCutoff = %v, want 8", got)
	}
}

func TestClampHelpers(t *testing.T) {
	if clampInt(5, 1, 10) != 5 || clampInt(-3, 1, 10) != 1 || clampInt(50, 1, 10) != 10 {
		t.Error("clampInt broken")
	}
	if maxInt(3, 9) != 9 || maxInt(9, 3) != 9 {
		t.Error("maxInt broken")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Estimate: 42, Passes: 6}
	if r.String() == "" {
		t.Error("Result.String should not be empty")
	}
}
