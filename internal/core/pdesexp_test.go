package core

import (
	"bytes"
	"testing"

	"tenways/internal/obs"
	"tenways/internal/pdes"
)

// TestF28ByteIdenticalAcrossEngineConfigs renders F28 under several engine
// partition/worker counts and requires byte-identical output: the whole
// point of the conservative engine is that parallelism is invisible in the
// virtual results.
func TestF28ByteIdenticalAcrossEngineConfigs(t *testing.T) {
	orig := f28Engine
	defer func() { f28Engine = orig }()

	lab := NewLab()
	render := func(cfg pdes.Config) string {
		t.Helper()
		f28Engine = cfg
		out, err := lab.Run("F28", Config{Quick: true, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("F28 with parts=%d workers=%d: %v", cfg.Partitions, cfg.Workers, err)
		}
		var buf bytes.Buffer
		if err := out.Render(&buf); err != nil {
			t.Fatalf("render: %v", err)
		}
		return buf.String()
	}

	base := render(pdes.Config{Partitions: 1, Workers: 1})
	if base == "" {
		t.Fatal("F28 rendered nothing")
	}
	for _, cfg := range []pdes.Config{
		{Partitions: 8, Workers: 8},
		{Partitions: 5, Workers: 3},
		{Partitions: 64, Workers: 2},
	} {
		if got := render(cfg); got != base {
			t.Errorf("parts=%d workers=%d output differs from serial baseline:\n%s\n--- baseline ---\n%s",
				cfg.Partitions, cfg.Workers, got, base)
		}
	}
}
