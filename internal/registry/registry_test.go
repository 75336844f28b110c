package registry

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dam"
)

func TestBuildSkipsNilOptions(t *testing.T) {
	d, err := Build("cola", nil, WithSpace(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Insert(1, 1)
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestConfigGetterDefaults(t *testing.T) {
	cfg, err := apply([]Option{WithGrowthFactor(6)})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.IsSet(OptGrowth) || cfg.GrowthFactor(2) != 6 {
		t.Errorf("set option not visible: IsSet=%v growth=%d", cfg.IsSet(OptGrowth), cfg.GrowthFactor(2))
	}
	if cfg.IsSet(OptFanout) || cfg.Fanout(8) != 8 {
		t.Errorf("unset option leaked: IsSet=%v fanout=%d", cfg.IsSet(OptFanout), cfg.Fanout(8))
	}
	if cfg.Epsilon(0.5) != 0.5 || cfg.BlockBytes(dam.DefaultBlockBytes) != dam.DefaultBlockBytes {
		t.Error("unset getters ignore their defaults")
	}
}

// TestOptionlessBuildSharesOneConfig pins what building a kind with its
// defaults costs and that the shortcut is safe: every builder leaves the
// shared empty Config unwritten, and a default gcola is a single
// allocation — the structure.
func TestOptionlessBuildSharesOneConfig(t *testing.T) {
	for _, kind := range Kinds() {
		if kind == "durable" {
			continue // needs a log path
		}
		d, err := Build(kind)
		if err != nil {
			t.Fatalf("Build(%q): %v", kind, err)
		}
		d.Insert(1, 2)
		if c, ok := d.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(emptyConfig.set) != 0 || emptyConfig.innerOpts != nil || emptyConfig.space != nil {
		t.Fatalf("building with defaults wrote to the shared empty Config: %+v", emptyConfig)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := Build("gcola"); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("Build(\"gcola\") allocates %.0f times, want the structure alone", avg)
	}
}

func TestAcceptsAndInfo(t *testing.T) {
	if !Accepts("gcola", OptGrowth) || Accepts("gcola", OptFanout) {
		t.Error("gcola option matrix wrong")
	}
	if Accepts("missing-kind", OptSpace) {
		t.Error("Accepts true for unregistered kind")
	}
	info, ok := Info("btree")
	if !ok || info.Doc == "" || len(info.Options) == 0 {
		t.Errorf("Info(btree) = (%+v, %v)", info, ok)
	}
	if _, ok := Info("missing-kind"); ok {
		t.Error("Info found an unregistered kind")
	}
}

func TestRegisterValidation(t *testing.T) {
	mk := func(*Config) (core.Dictionary, error) { return nil, nil }
	if err := Register("", KindInfo{New: mk}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register("x-nil-new", KindInfo{}); err == nil {
		t.Error("nil New accepted")
	}
	if err := Register("cola", KindInfo{New: mk}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate registration: %v", err)
	}
}

// TestNoStutteredPrefixOnInnerErrors pins the error shape when a
// wrapper kind propagates an inner Build failure: one "repro:" prefix,
// not two.
func TestNoStutteredPrefixOnInnerErrors(t *testing.T) {
	_, err := Build("sharded", WithInner("nope"))
	if err == nil {
		t.Fatal("expected error")
	}
	if strings.Count(err.Error(), "repro: ") != 1 {
		t.Fatalf("stuttered prefix: %q", err)
	}
}

func TestBuilderNilDictionaryIsError(t *testing.T) {
	// Tolerate re-registration: the registry is package-global and this
	// test may run more than once per process (go test -count=2).
	if err := Register("x-nil-result", KindInfo{
		Doc: "builder that returns nil",
		New: func(*Config) (core.Dictionary, error) { return nil, nil },
	}); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	if _, err := Build("x-nil-result"); err == nil ||
		!strings.Contains(err.Error(), "nil dictionary") {
		t.Errorf("nil-returning builder: %v", err)
	}
}
