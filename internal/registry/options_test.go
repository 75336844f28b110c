package registry

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cola"
	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/snap"
)

// TestOptionTableComplete: every Opt* constant the package declares has
// exactly one row in optionTable, and no row names anything else.
func TestOptionTableComplete(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "registry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if strings.HasPrefix(id.Name, "Opt") {
					lit := vs.Values[i].(*ast.BasicLit)
					declared[strings.Trim(lit.Value, `"`)] = true
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no Opt* constants in registry.go")
	}
	rows := map[string]int{}
	for _, row := range optionTable {
		rows[row.name]++
		if !declared[row.name] {
			t.Errorf("optionTable row %q names no Opt* constant", row.name)
		}
	}
	for name := range declared {
		if rows[name] != 1 {
			t.Errorf("option %s has %d rows in optionTable, want 1", name, rows[name])
		}
	}
}

// optionSample builds, for one option, a kind that accepts it and the
// options to build that kind with, the sampled option last.
type optionSample struct {
	kind string
	opts []Option
}

func optionSamples(t *testing.T) map[string]optionSample {
	dir := t.TempDir()
	return map[string]optionSample{
		OptGrowth:          {"gcola", []Option{WithGrowthFactor(4)}},
		OptPointerDensity:  {"gcola", []Option{WithPointerDensity(0.25)}},
		OptFanout:          {"btree", []Option{WithFanout(16)}},
		OptEpsilon:         {"la", []Option{WithEpsilon(0.25)}},
		OptBlockBytes:      {"brt", []Option{WithBlockBytes(1024)}},
		OptLeafCapacity:    {"btree", []Option{WithLeafCapacity(32)}},
		OptRelayoutEvery:   {"shuttle", []Option{WithRelayoutEvery(-1)}},
		OptShards:          {"sharded", []Option{WithShards(4)}},
		OptBatchSize:       {"sharded", []Option{WithShards(2), WithBatchSize(64)}},
		OptShardDAM:        {"sharded", []Option{WithShards(2), WithShardDAM(4096, 1<<16)}},
		OptInner:           {"synchronized", []Option{WithInner("btree", WithFanout(8))}},
		OptWALPath:         {"durable", []Option{WithWALPath(filepath.Join(dir, "a.wal"))}},
		OptCheckpointEvery: {"durable", []Option{WithWALPath(filepath.Join(dir, "b.wal")), WithCheckpointEvery(8)}},
		OptSpace:           {"gcola", []Option{WithSpace(dam.NewStore(4096, 1<<16).Space("s"))}},
		OptFactory: {"sharded", []Option{WithShards(2), WithFactory(func(_ int, sp *dam.Space) core.Dictionary {
			return cola.NewCOLA(sp)
		})}},
		OptSpillDir:        {"gcola", []Option{WithSpillDir(dir)}},
		OptSpillDepth:      {"gcola", []Option{WithSpillDir(dir), WithSpillDepth(3)}},
		OptSpillCacheBytes: {"gcola", []Option{WithSpillDir(dir), WithSpillCacheBytes(1 << 16)}},
	}
}

func closeIf(t *testing.T, d core.Dictionary) {
	t.Helper()
	if c, ok := d.(io.Closer); ok {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// recordedOpt returns the header record of the named option in spec.
func recordedOpt(spec *snap.Spec, name string) (snap.Opt, bool) {
	for _, o := range spec.Opts {
		if o.Name == name {
			return o, true
		}
	}
	return snap.Opt{}, false
}

// TestRecordedOptionsRoundTrip: every recorded row survives the
// container header codec, and — where a snapshot-capable kind accepts
// it — Save, Load and a second Save with an equal header spec.
func TestRecordedOptionsRoundTrip(t *testing.T) {
	samples := optionSamples(t)
	for _, row := range optionTable {
		if row.wiring {
			continue
		}
		s, ok := samples[row.name]
		if !ok {
			t.Fatalf("no sample for option %s", row.name)
		}
		if !Accepts(s.kind, row.name) {
			t.Fatalf("%s: sample kind %q does not accept it", row.name, s.kind)
		}
		cfg := applyT(t, s.opts...)
		spec, err := specFromConfig(s.kind, cfg)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if _, ok := recordedOpt(spec, row.name); !ok {
			t.Fatalf("%s: not recorded in %+v", row.name, spec)
		}
		var hdr bytes.Buffer
		if _, err := snap.Encode(&hdr, spec, bytes.NewReader(nil)); err != nil {
			t.Fatal(err)
		}
		decoded, err := snap.DecodeHeader(&hdr)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := optionsFromSpec(decoded)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		again, err := specFromConfig(decoded.Kind, applyT(t, opts...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("%s: header round trip %+v, want %+v", row.name, again, spec)
		}

		if info, _ := Info(s.kind); !info.Caps.Snapshot {
			continue // durable's own options: no snapshot-capable kind takes them
		}
		d, err := Build(s.kind, s.opts...)
		if err != nil {
			t.Fatal(err)
		}
		d.Insert(7, 70)
		var first bytes.Buffer
		if err := Save(&first, s.kind, d, s.opts...); err != nil {
			t.Fatalf("%s: Save: %v", row.name, err)
		}
		saved, _, err := snap.Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: Load: %v", row.name, err)
		}
		if v, ok := loaded.Search(7); !ok || v != 70 {
			t.Fatalf("%s: loaded Search(7) = (%d, %v)", row.name, v, ok)
		}
		recorded, err := optionsFromSpec(saved)
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := Save(&second, saved.Kind, loaded, recorded...); err != nil {
			t.Fatalf("%s: re-Save: %v", row.name, err)
		}
		resaved, _, err := snap.Decode(&second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resaved, saved) {
			t.Fatalf("%s: re-saved header %+v, want %+v", row.name, resaved, saved)
		}
	}
}

// TestWiringOptionsNeverRecorded: a runtime-wiring option is absent
// from every saved header (a factory makes Save fail instead), a header
// naming one is as unreadable as one naming an unknown option, and a
// durable inner refuses it.
func TestWiringOptionsNeverRecorded(t *testing.T) {
	samples := optionSamples(t)
	for _, row := range optionTable {
		if !row.wiring {
			continue
		}
		s, ok := samples[row.name]
		if !ok {
			t.Fatalf("no sample for option %s", row.name)
		}
		d, err := Build(s.kind, s.opts...)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		var buf bytes.Buffer
		err = Save(&buf, s.kind, d, s.opts...)
		closeIf(t, d)
		switch {
		case row.name == OptFactory:
			if err == nil || !strings.Contains(err.Error(), OptFactory) {
				t.Fatalf("Save with a factory: %v", err)
			}
		case err != nil:
			t.Fatalf("%s: Save: %v", row.name, err)
		default:
			spec, err := snap.DecodeHeader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := recordedOpt(spec, row.name); ok {
				t.Fatalf("%s recorded in a saved header: %+v", row.name, spec)
			}
		}

		forged := &snap.Spec{Kind: s.kind, Opts: []snap.Opt{snap.Int(row.name, 1)}}
		if _, err := optionsFromSpec(forged); !errors.Is(err, core.ErrBadVersion) {
			t.Fatalf("header naming %s: %v, want ErrBadVersion", row.name, err)
		}

		wal := filepath.Join(t.TempDir(), "w.wal")
		if dd, err := Build("durable", WithWALPath(wal), WithInner(s.kind, s.opts...)); err == nil {
			closeIf(t, dd)
			t.Fatalf("durable accepted an inner with %s", row.name)
		} else if !strings.Contains(err.Error(), "runtime wiring") {
			t.Fatalf("durable inner with %s: %v", row.name, err)
		}
	}
	unknown := &snap.Spec{Kind: "cola", Opts: []snap.Opt{snap.Int("WithFromTheFuture", 1)}}
	if _, err := optionsFromSpec(unknown); !errors.Is(err, core.ErrBadVersion) {
		t.Fatalf("unknown header option: %v, want ErrBadVersion", err)
	}
}
