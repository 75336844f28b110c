package registry

// The bridge between the registry's option sheet and the snap
// container's self-describing header: Save records the kind and the
// serializable options alongside the structure's payload, Load reads
// them back and rebuilds the right structure without the caller knowing
// what was saved.

import (
	"fmt"
	"io"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/snap"
)

// value is one option's setting, in the shape every option shares; its
// row's valueKind says which fields are meaningful.
type value struct {
	i, j int64
	f    float64
	s    string
}

// valueKind says which fields of a value an option uses, how its
// constructor's arguments read in an error message, and how a snapshot
// header records it.
type valueKind uint8

const (
	objectValue valueKind = iota // the live object sits in a typed Config field
	intValue
	pairValue
	floatValue
	stringValue
	innerValue // WithInner: the kind in s, recorded as a nested spec
)

func (k valueKind) format(v value) string {
	switch k {
	case intValue:
		return fmt.Sprint(v.i)
	case pairValue:
		return fmt.Sprintf("%d, %d", v.i, v.j)
	case floatValue:
		return fmt.Sprintf("%g", v.f)
	case stringValue:
		return fmt.Sprintf("%q", v.s)
	}
	return ""
}

// optionRow is everything the registry knows about one option beyond
// its constructor and getter.
type optionRow struct {
	name string
	kind valueKind
	// wiring marks process-local runtime wiring: never recorded in a
	// snapshot header (pass it again at Load), and refused inside a
	// durable inner, whose reopen could not restore it.
	wiring bool
	// valid is the constructor's range check (nil: any value), and rule
	// the error text when it fails.
	valid func(value) bool
	rule  string
}

// optionTable has one row per option. Recorded rows come in
// snapshot-header order, which is part of the container format:
// identical configurations must serialize identically.
var optionTable = []optionRow{
	{name: OptGrowth, kind: intValue, valid: atLeast(2), rule: "growth factor must be at least 2"},
	{name: OptPointerDensity, kind: floatValue, valid: within(0, 0.5), rule: "density must lie in [0, 0.5]"},
	{name: OptFanout, kind: intValue, valid: atLeast(2), rule: "fanout must be at least 2"},
	{name: OptEpsilon, kind: floatValue, valid: within(0, 1), rule: "epsilon must lie in [0, 1]"},
	{name: OptBlockBytes, kind: intValue, valid: atLeast(2 * core.ElementBytes),
		rule: fmt.Sprintf("blocks must hold at least two %d-byte elements", core.ElementBytes)},
	{name: OptLeafCapacity, kind: intValue, valid: atLeast(2), rule: "leaves must hold at least 2 elements"},
	{name: OptRelayoutEvery, kind: intValue},
	{name: OptShards, kind: intValue, valid: atLeast(1), rule: "shard count must be positive"},
	{name: OptBatchSize, kind: intValue, valid: atLeast(1), rule: "batch size must be positive"},
	{name: OptShardDAM, kind: pairValue, valid: func(v value) bool { return v.i > 0 && v.j >= 0 },
		rule: "block size must be positive and cache size non-negative"},
	{name: OptWALPath, kind: stringValue, valid: nonEmpty, rule: "path must be non-empty"},
	{name: OptCheckpointEvery, kind: intValue, valid: atLeast(0), rule: "period must be non-negative"},
	{name: OptInner, kind: innerValue},
	{name: OptSpace, kind: objectValue, wiring: true},
	{name: OptFactory, kind: objectValue, wiring: true},
	{name: OptSpillDir, kind: stringValue, wiring: true, valid: nonEmpty, rule: "directory must be non-empty"},
	{name: OptSpillDepth, kind: intValue, wiring: true, valid: atLeast(1), rule: "spill depth must be at least 1"},
	{name: OptSpillCacheBytes, kind: intValue, wiring: true, valid: atLeast(1), rule: "cache budget must be positive"},
}

func atLeast(min int64) func(value) bool { return func(v value) bool { return v.i >= min } }

func within(lo, hi float64) func(value) bool {
	return func(v value) bool { return v.f >= lo && v.f <= hi }
}

func nonEmpty(v value) bool { return v.s != "" }

// rowOf returns the named option's row, or nil for a name no option
// has.
func rowOf(name string) *optionRow {
	for i := range optionTable {
		if optionTable[i].name == name {
			return &optionTable[i]
		}
	}
	return nil
}

// specFromConfig converts a validated Config into the container header
// spec. Runtime wiring (optionTable's wiring rows: a live DAM space, a
// spill store) is silently omitted — pass it again at Load. A
// WithDictionary factory is an error: a closure-built structure cannot
// be described by name.
func specFromConfig(kind string, c *Config) (*snap.Spec, error) {
	return buildSpec(kind, c, true)
}

// requestedSpec is specFromConfig without the default-shard pinning:
// the result holds exactly the options the caller set, at every nesting
// level, which is the right shape for comparing a caller's request
// against a checkpoint's recorded spec (a synthetic GOMAXPROCS-derived
// pin must not read as a conflict on a machine with different
// parallelism).
func requestedSpec(kind string, c *Config) (*snap.Spec, error) {
	return buildSpec(kind, c, false)
}

func buildSpec(kind string, c *Config, pinDefaults bool) (*snap.Spec, error) {
	if c.IsSet(OptFactory) {
		return nil, fmt.Errorf("a WithDictionary factory cannot be recorded in a snapshot; use WithInner with a registered kind")
	}
	spec := &snap.Spec{Kind: kind}
	for _, row := range optionTable {
		v, ok := c.set[row.name]
		if !ok || row.wiring {
			continue
		}
		var o snap.Opt
		switch row.kind {
		case intValue:
			o = snap.Int(row.name, v.i)
		case pairValue:
			o = snap.IntPair(row.name, v.i, v.j)
		case floatValue:
			o = snap.Float(row.name, v.f)
		case stringValue:
			o = snap.String(row.name, v.s)
		case innerValue:
			icfg, err := innerConfig(c.innerOpts)
			if err != nil {
				return nil, err
			}
			isp, err := buildSpec(v.s, icfg, pinDefaults)
			if err != nil {
				return nil, err
			}
			o = snap.Nested(row.name, isp)
		}
		spec.Opts = append(spec.Opts, o)
	}
	// The shard count is part of the composed codec's format (hash
	// routing depends on it), so a sharded spec built with the
	// GOMAXPROCS-derived default must still pin it explicitly — a
	// restore on a machine with different parallelism would otherwise
	// build an incompatible map. Save overrides this with the live
	// map's exact count; here (including nested WithInner specs and
	// durable checkpoint specs) the build-time default is recorded,
	// which is what the same-process builder produced.
	if pinDefaults && Accepts(kind, OptShards) && !c.IsSet(OptShards) {
		spec.Opts = append(spec.Opts, snap.Int(OptShards, int64(shard.Count(0))))
	}
	return spec, nil
}

// specConflict reports the first place where the recorded spec rec
// contradicts the requested spec req — a differing kind, an option rec
// does not record, or a differing value — as a human-readable
// description. req must hold only explicitly-set options (see
// requestedSpec); options the caller left to default are simply absent
// from it, so the recorded configuration wins for them. An option the
// caller passes that was never recorded is rejected even if its value
// happens to equal the default the structure was really built with:
// defaults live inside the builders and are not recorded, so the match
// cannot be verified — the safe answers are "omit it" or "rebuild".
// Nested specs are compared with the same subset semantics.
func specConflict(req, rec *snap.Spec) (string, bool) {
	if req.Kind != rec.Kind {
		return fmt.Sprintf("kind %q was requested but %q is recorded", req.Kind, rec.Kind), true
	}
	for _, ro := range req.Opts {
		found := false
		for _, so := range rec.Opts {
			if so.Name != ro.Name {
				continue
			}
			found = true
			if ro.Spec != nil && so.Spec != nil {
				if desc, conflict := specConflict(ro.Spec, so.Spec); conflict {
					return ro.Name + ": " + desc, true
				}
			} else if !reflect.DeepEqual(ro, so) {
				return fmt.Sprintf("%s requests a different value than the recorded one", ro.Name), true
			}
			break
		}
		if !found {
			return fmt.Sprintf("%s was not set when the checkpoint was created (the value was left to its default, which is not recorded)", ro.Name), true
		}
	}
	return "", false
}

// optionsFromSpec converts a decoded header spec back into buildable
// options. An option name this build does not know is treated like an
// unreadable format version: the snapshot was written by a newer
// lineup.
func optionsFromSpec(spec *snap.Spec) ([]Option, error) {
	opts := make([]Option, 0, len(spec.Opts))
	for _, o := range spec.Opts {
		row := rowOf(o.Name)
		switch {
		case row == nil || row.wiring:
			return nil, fmt.Errorf("snapshot header names option %q unknown to this build: %w",
				o.Name, core.ErrBadVersion)
		case row.kind != innerValue:
			opts = append(opts, setting(o.Name, value{i: o.Int, j: o.Int2, f: o.Float, s: o.Str}))
		case o.Spec == nil:
			return nil, fmt.Errorf("snapshot header option %q carries no inner spec: %w", o.Name, core.ErrCorrupt)
		default:
			innerOpts, err := optionsFromSpec(o.Spec)
			if err != nil {
				return nil, err
			}
			opts = append(opts, WithInner(o.Spec.Kind, innerOpts...))
		}
	}
	return opts, nil
}

// Save writes d — which must have been built as the named kind with the
// given options — as one self-describing snapshot container. The kind
// must be snapshot-capable (Caps.Snapshot), the options must validate
// exactly as they would for Build, and d's concrete type must match
// what the kind builds, so a mislabeled save fails here rather than at
// some future Load.
//
// Two options need care: WithSpace is not recorded (re-attach a space
// via Load's extra options), and for a sharded map saved without an
// explicit WithShards the live partition count is recorded
// automatically, since the shard count is part of the hash routing and
// the build-time default follows GOMAXPROCS.
func Save(w io.Writer, kind string, d core.Dictionary, opts ...Option) error {
	e, ok := lookup(kind)
	if !ok {
		return fmt.Errorf("repro: unknown dictionary kind %q (registered kinds: %s)",
			kind, strings.Join(Kinds(), ", "))
	}
	if !e.info.Caps.Snapshot {
		return fmt.Errorf("repro: kind %q does not support snapshots (capabilities: %s)", kind, e.info.Caps)
	}
	sn, ok := d.(core.Snapshotter)
	if !ok {
		return fmt.Errorf("repro: %T does not implement Snapshotter", d)
	}
	cfg, err := configFor(e, kind, opts)
	if err != nil {
		return err
	}
	if e.accepts[OptShards] && !cfg.IsSet(OptShards) {
		if ns, ok := d.(interface{ NumShards() int }); ok {
			if err := WithShards(ns.NumShards())(cfg); err != nil {
				return buildErr(kind, err)
			}
		}
	}
	probe, err := e.info.New(cfg)
	if err != nil {
		return buildErr(kind, err)
	}
	if pt, dt := reflect.TypeOf(probe), reflect.TypeOf(d); pt != dt {
		return fmt.Errorf("repro: kind %q builds %v but the dictionary being saved is %v; pass the kind it was built as", kind, pt, dt)
	}
	// The top-level type check cannot see through wrapper kinds — a
	// sharded map of btree shards and one of cola shards are both
	// *shard.Map — so walk the wrapper layers and compare the inner
	// concrete types too. Otherwise a forgotten or wrong WithInner
	// records a header that contradicts the payload, failing (or worse,
	// silently rebuilding a different structure) at some future Load.
	for p, l := probe, d; ; {
		pi, pok := innerOf(p)
		li, lok := innerOf(l)
		if !pok || !lok {
			break
		}
		if pt, lt := reflect.TypeOf(pi), reflect.TypeOf(li); pt != lt {
			return fmt.Errorf("repro: kind %q with these options builds inner %v but the dictionary being saved holds inner %v; pass the WithInner it was built with", kind, pt, lt)
		}
		p, l = pi, li
	}
	// The probe exists only for the type comparison; release anything it
	// opened (a spill-configured gcola probe holds an open spill
	// directory). The error is irrelevant — the probe holds no state.
	if cl, ok := probe.(io.Closer); ok {
		_ = cl.Close()
	}
	spec, err := specFromConfig(kind, cfg)
	if err != nil {
		return buildErr(kind, err)
	}
	if err := reconcileShardCounts(spec, cfg, d); err != nil {
		return fmt.Errorf("repro: saving %q: %w", kind, err)
	}
	if _, err := snap.Encode(w, spec, sn); err != nil {
		return fmt.Errorf("repro: saving %q: %w", kind, err)
	}
	return nil
}

// reconcileShardCounts rewrites every recorded shard count in spec to
// the live partition count of the (sub)structure it describes, walking
// wrapper layers in tandem with the live dictionary. A count pinned
// from the build-time default (GOMAXPROCS-derived) may disagree with
// the count a nested map was really built with, and the live count is
// the one the payload's hash routing depends on, so it is the only one
// worth recording. A count the caller claimed explicitly must already
// match the live one; a mismatch is a mislabeled save and fails here
// rather than at some future Load.
func reconcileShardCounts(spec *snap.Spec, c *Config, d core.Dictionary) error {
	if ns, ok := d.(interface{ NumShards() int }); ok {
		live := int64(ns.NumShards())
		for i := range spec.Opts {
			if spec.Opts[i].Name != OptShards {
				continue
			}
			if c.IsSet(OptShards) && spec.Opts[i].Int != live {
				return fmt.Errorf("WithShards(%d) was passed but the map being saved has %d partitions; pass the count it was built with, or omit WithShards to record it automatically", spec.Opts[i].Int, live)
			}
			spec.Opts[i].Int = live
			break
		}
	}
	inner, ok := innerOf(d)
	if !ok {
		return nil
	}
	if _, innerOpts, hasInner := c.Inner(); hasInner {
		icfg, err := innerConfig(innerOpts)
		if err != nil {
			return err
		}
		for i := range spec.Opts {
			if spec.Opts[i].Name == OptInner && spec.Opts[i].Spec != nil {
				return reconcileShardCounts(spec.Opts[i].Spec, icfg, inner)
			}
		}
	}
	return nil
}

// Load reads one snapshot container, rebuilds the recorded kind with
// the recorded options plus any extra ones (applied after, e.g.
// WithSpace to re-attach cost accounting), and restores the payload
// into it. Both checksums are verified before any structure decoder
// runs.
func Load(r io.Reader, extra ...Option) (core.Dictionary, error) {
	d, _, err := loadContainer(r, extra...)
	return d, err
}

// loadContainer is Load, additionally returning the decoded spec (the
// durable builder re-uses it to write future checkpoints under the
// same header).
func loadContainer(r io.Reader, extra ...Option) (core.Dictionary, *snap.Spec, error) {
	spec, payload, err := snap.Decode(r)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: loading snapshot: %w", err)
	}
	// Gate on the recorded kinds' snapshot capabilities BEFORE building
	// anything: a builder may have side effects (the durable kind opens
	// and repairs files at its WAL path), and a hostile header must not
	// be able to trigger them. Only Caps.Snapshot kinds — whose builders
	// are pure construction — run from untrusted input, and the check is
	// recursive because wrapper builders Build their nested WithInner
	// specs.
	if err := validateSpecKinds(spec); err != nil {
		return nil, nil, err
	}
	recorded, err := optionsFromSpec(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: loading snapshot: %w", err)
	}
	d, err := Build(spec.Kind, append(recorded, extra...)...)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: loading snapshot of %q: %w", spec.Kind, err)
	}
	sn, ok := d.(core.Snapshotter)
	if !ok {
		return nil, nil, fmt.Errorf("repro: snapshot names kind %q, which cannot restore itself", spec.Kind)
	}
	if _, err := sn.ReadFrom(payload); err != nil {
		return nil, nil, fmt.Errorf("repro: restoring %q payload: %w", spec.Kind, err)
	}
	return d, spec, nil
}

// innerOf descends one wrapper layer: a synchronized wrapper unwraps to
// the dictionary it guards, a sharded map to a representative shard's
// inner (every shard is built by the same factory, so one stands for
// all). Non-wrapper structures report false.
func innerOf(d core.Dictionary) (core.Dictionary, bool) {
	switch v := d.(type) {
	case interface{ Unwrap() core.Dictionary }:
		return v.Unwrap(), true
	case interface{ InnerAt(int) core.Dictionary }:
		return v.InnerAt(0), true
	}
	return nil, false
}

// validateSpecKinds walks a decoded header spec — including every
// nested WithInner spec — and rejects any kind that is unknown or not
// snapshot-capable, before any builder can run. A wrapper builder
// Builds its inner spec, so a hostile container naming a pure wrapper
// ("synchronized", "sharded") around a side-effecting kind ("durable",
// whose wal.Open truncates and repairs files at its WAL path) is
// exactly as dangerous as naming that kind at the top level; both must
// fail here.
func validateSpecKinds(spec *snap.Spec) error {
	e, known := lookup(spec.Kind)
	if !known {
		return fmt.Errorf("repro: snapshot names unregistered kind %q (registered kinds: %s)",
			spec.Kind, strings.Join(Kinds(), ", "))
	}
	if !e.info.Caps.Snapshot {
		return fmt.Errorf("repro: snapshot names kind %q, which cannot restore itself (capabilities: %s)",
			spec.Kind, e.info.Caps)
	}
	for _, o := range spec.Opts {
		if o.Spec != nil {
			if err := validateSpecKinds(o.Spec); err != nil {
				return err
			}
		}
	}
	return nil
}
