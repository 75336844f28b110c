// Package registry is the named-builder registry behind repro.Build:
// every dictionary kind in the repository registers itself here under a
// stable string name together with the set of options it accepts and a
// build function, so callers (the facade, the harness, streambench, the
// conformance suite, external users via repro.Register) can construct,
// enumerate, and validate any structure uniformly.
//
// Construction goes through one shared functional-option sheet (Config):
// an option that a kind does not accept is a descriptive error, not a
// silently ignored field — the failure mode of the v1 per-structure
// option structs this package replaces.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/shard"
)

// Canonical option names, used in KindInfo.Options and error messages.
// They match the facade's constructor names so an error message names
// the function the caller actually wrote.
const (
	OptSpace           = "WithSpace"
	OptGrowth          = "WithGrowthFactor"
	OptPointerDensity  = "WithPointerDensity"
	OptFanout          = "WithFanout"
	OptEpsilon         = "WithEpsilon"
	OptBlockBytes      = "WithBlockBytes"
	OptLeafCapacity    = "WithLeafCapacity"
	OptRelayoutEvery   = "WithRelayoutEvery"
	OptShards          = "WithShards"
	OptBatchSize       = "WithBatchSize"
	OptShardDAM        = "WithShardDAM"
	OptInner           = "WithInner"
	OptFactory         = "WithDictionary"
	OptWALPath         = "WithWALPath"
	OptCheckpointEvery = "WithCheckpointEvery"
	OptSpillDir        = "WithSpillDir"
	OptSpillDepth      = "WithSpillDepth"
	OptSpillCacheBytes = "WithSpillCacheBytes"
)

// Config is the unified option sheet every kind builds from. Options
// record both a value and the fact that they were set, so build
// functions can distinguish "caller chose the default" from "caller
// never spoke" and Build can reject options a kind does not accept.
type Config struct {
	set map[string]bool

	space          *dam.Space
	growth         int
	pointerDensity float64
	fanout         int
	epsilon        float64
	blockBytes     int64
	leafCapacity   int
	relayoutEvery  int
	shards         int
	batchSize      int
	shardBlock     int64
	shardCache     int64
	innerKind      string
	innerOpts      []Option
	factory        shard.Factory
	walPath        string
	ckptEvery      int
	spillDir       string
	spillDepth     int
	spillCache     int64
}

func newConfig() *Config { return &Config{set: make(map[string]bool)} }

func (c *Config) mark(name string) { c.set[name] = true }

// IsSet reports whether the named option was explicitly provided.
func (c *Config) IsSet(name string) bool { return c.set[name] }

// Space returns the DAM space option (nil when unset or explicitly nil).
func (c *Config) Space() *dam.Space { return c.space }

// GrowthFactor returns the growth factor, or def when unset.
func (c *Config) GrowthFactor(def int) int {
	if c.set[OptGrowth] {
		return c.growth
	}
	return def
}

// PointerDensity returns the lookahead pointer density, or def when
// unset.
func (c *Config) PointerDensity(def float64) float64 {
	if c.set[OptPointerDensity] {
		return c.pointerDensity
	}
	return def
}

// Fanout returns the fanout / balance parameter, or def when unset.
func (c *Config) Fanout(def int) int {
	if c.set[OptFanout] {
		return c.fanout
	}
	return def
}

// Epsilon returns the insert/search tradeoff parameter, or def when
// unset.
func (c *Config) Epsilon(def float64) float64 {
	if c.set[OptEpsilon] {
		return c.epsilon
	}
	return def
}

// BlockBytes returns the block size, or def when unset.
func (c *Config) BlockBytes(def int64) int64 {
	if c.set[OptBlockBytes] {
		return c.blockBytes
	}
	return def
}

// LeafCapacity returns the B-tree leaf capacity, or def when unset.
func (c *Config) LeafCapacity(def int) int {
	if c.set[OptLeafCapacity] {
		return c.leafCapacity
	}
	return def
}

// RelayoutEvery returns the shuttle relayout period, or def when unset.
func (c *Config) RelayoutEvery(def int) int {
	if c.set[OptRelayoutEvery] {
		return c.relayoutEvery
	}
	return def
}

// Shards returns the shard count, or def when unset.
func (c *Config) Shards(def int) int {
	if c.set[OptShards] {
		return c.shards
	}
	return def
}

// BatchSize returns the loader batch size, or def when unset.
func (c *Config) BatchSize(def int) int {
	if c.set[OptBatchSize] {
		return c.batchSize
	}
	return def
}

// ShardDAM returns the per-shard DAM geometry; ok is false when unset.
func (c *Config) ShardDAM() (blockBytes, cacheBytes int64, ok bool) {
	return c.shardBlock, c.shardCache, c.set[OptShardDAM]
}

// Inner returns the inner-kind selection; ok is false when unset.
func (c *Config) Inner() (kind string, opts []Option, ok bool) {
	return c.innerKind, c.innerOpts, c.set[OptInner]
}

// Factory returns the explicit per-shard factory; nil when unset.
func (c *Config) Factory() shard.Factory { return c.factory }

// WALPath returns the write-ahead log path; ok is false when unset.
func (c *Config) WALPath() (string, bool) { return c.walPath, c.set[OptWALPath] }

// CheckpointEvery returns the automatic checkpoint period in log
// records, or def when unset.
func (c *Config) CheckpointEvery(def int) int {
	if c.set[OptCheckpointEvery] {
		return c.ckptEvery
	}
	return def
}

// SpillDir returns the out-of-core spill directory; ok is false when
// unset (fully in-RAM operation).
func (c *Config) SpillDir() (string, bool) { return c.spillDir, c.set[OptSpillDir] }

// SpillDepth returns the first spilled level index, or def when unset.
func (c *Config) SpillDepth(def int) int {
	if c.set[OptSpillDepth] {
		return c.spillDepth
	}
	return def
}

// SpillCacheBytes returns the spill page-cache budget, or def when
// unset.
func (c *Config) SpillCacheBytes(def int64) int64 {
	if c.set[OptSpillCacheBytes] {
		return c.spillCache
	}
	return def
}

// Option is one entry of the unified functional-option set shared by
// every registered kind. Applying an option can fail (a value out of
// range fails eagerly, with the offending constructor named), and Build
// rejects options the selected kind does not accept.
type Option func(*Config) error

// WithSpace charges the structure's memory traffic to the given DAM
// space; nil disables accounting.
func WithSpace(sp *dam.Space) Option {
	return func(c *Config) error {
		c.space = sp
		c.mark(OptSpace)
		return nil
	}
}

// WithGrowthFactor sets the lookahead-array growth factor g (>= 2).
func WithGrowthFactor(g int) Option {
	return func(c *Config) error {
		if g < 2 {
			return fmt.Errorf("WithGrowthFactor(%d): growth factor must be at least 2", g)
		}
		c.growth = g
		c.mark(OptGrowth)
		return nil
	}
}

// WithPointerDensity sets the lookahead pointer density p in [0, 0.5];
// p = 0 disables fractional cascading.
func WithPointerDensity(p float64) Option {
	return func(c *Config) error {
		if p < 0 || p > 0.5 {
			return fmt.Errorf("WithPointerDensity(%g): density must lie in [0, 0.5]", p)
		}
		c.pointerDensity = p
		c.mark(OptPointerDensity)
		return nil
	}
}

// WithFanout sets the tree fanout / balance parameter.
func WithFanout(n int) Option {
	return func(c *Config) error {
		if n < 2 {
			return fmt.Errorf("WithFanout(%d): fanout must be at least 2", n)
		}
		c.fanout = n
		c.mark(OptFanout)
		return nil
	}
}

// WithEpsilon positions a cache-aware lookahead array on the
// insert/search tradeoff curve; epsilon must lie in [0, 1].
func WithEpsilon(e float64) Option {
	return func(c *Config) error {
		if e < 0 || e > 1 {
			return fmt.Errorf("WithEpsilon(%g): epsilon must lie in [0, 1]", e)
		}
		c.epsilon = e
		c.mark(OptEpsilon)
		return nil
	}
}

// WithBlockBytes sets the block size B in bytes for the cache-aware
// structures (B-tree, BRT, lookahead array).
func WithBlockBytes(b int64) Option {
	return func(c *Config) error {
		if b < 2*core.ElementBytes {
			return fmt.Errorf("WithBlockBytes(%d): blocks must hold at least two %d-byte elements", b, core.ElementBytes)
		}
		c.blockBytes = b
		c.mark(OptBlockBytes)
		return nil
	}
}

// WithLeafCapacity sets the B-tree's elements-per-leaf directly,
// overriding the BlockBytes-derived default.
func WithLeafCapacity(n int) Option {
	return func(c *Config) error {
		if n < 2 {
			return fmt.Errorf("WithLeafCapacity(%d): leaves must hold at least 2 elements", n)
		}
		c.leafCapacity = n
		c.mark(OptLeafCapacity)
		return nil
	}
}

// WithRelayoutEvery sets how many node splits the shuttle tree absorbs
// before rebuilding its exact van Emde Boas layout; negative disables
// rebuilds.
func WithRelayoutEvery(n int) Option {
	return func(c *Config) error {
		c.relayoutEvery = n
		c.mark(OptRelayoutEvery)
		return nil
	}
}

// WithShards sets the sharded map's partition count (rounded up to a
// power of two by the shard package).
func WithShards(n int) Option {
	return func(c *Config) error {
		if n <= 0 {
			return fmt.Errorf("WithShards(%d): shard count must be positive", n)
		}
		c.shards = n
		c.mark(OptShards)
		return nil
	}
}

// WithBatchSize sets the sharded map loader's per-flush batch size.
func WithBatchSize(k int) Option {
	return func(c *Config) error {
		if k <= 0 {
			return fmt.Errorf("WithBatchSize(%d): batch size must be positive", k)
		}
		c.batchSize = k
		c.mark(OptBatchSize)
		return nil
	}
}

// WithShardDAM gives every shard of a sharded map its own DAM store
// with the given geometry; Transfers then reports the aggregate.
func WithShardDAM(blockBytes, cacheBytes int64) Option {
	return func(c *Config) error {
		if blockBytes <= 0 || cacheBytes < 0 {
			return fmt.Errorf("WithShardDAM(%d, %d): block size must be positive and cache size non-negative", blockBytes, cacheBytes)
		}
		c.shardBlock = blockBytes
		c.shardCache = cacheBytes
		c.mark(OptShardDAM)
		return nil
	}
}

// WithInner selects the structure a wrapper kind ("sharded",
// "synchronized") wraps: any registered kind plus its own options. Do
// not pass WithSpace in the inner options of a sharded map — each shard
// receives its private space (see WithShardDAM).
func WithInner(kind string, opts ...Option) Option {
	return func(c *Config) error {
		c.innerKind = kind
		c.innerOpts = opts
		c.mark(OptInner)
		return nil
	}
}

// WithWALPath sets the write-ahead log path of a "durable" dictionary;
// the checkpoint snapshot lives next to it at path + ".ckpt". Reopening
// the same path recovers the logged state.
func WithWALPath(path string) Option {
	return func(c *Config) error {
		if path == "" {
			return fmt.Errorf("WithWALPath(%q): path must be non-empty", path)
		}
		c.walPath = path
		c.mark(OptWALPath)
		return nil
	}
}

// WithCheckpointEvery makes a "durable" dictionary checkpoint
// automatically after every n appended log records (batches, not
// elements); n = 0 disables automatic checkpoints.
func WithCheckpointEvery(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return fmt.Errorf("WithCheckpointEvery(%d): period must be non-negative", n)
		}
		c.ckptEvery = n
		c.mark(OptCheckpointEvery)
		return nil
	}
}

// WithSpillDir turns on a gcola's out-of-core mode: levels at or past
// the spill depth live in chunk-aligned files under a private
// subdirectory of dir (see internal/extmem) instead of RAM. Like
// WithSpace, the spill configuration is runtime wiring — it is not
// recorded in snapshots and must be passed again at Load.
func WithSpillDir(dir string) Option {
	return func(c *Config) error {
		if dir == "" {
			return fmt.Errorf("WithSpillDir(%q): directory must be non-empty", dir)
		}
		c.spillDir = dir
		c.mark(OptSpillDir)
		return nil
	}
}

// WithSpillDepth sets the first level index backed by spill files
// (>= 1; level 0 always stays in RAM). Requires WithSpillDir.
func WithSpillDepth(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("WithSpillDepth(%d): spill depth must be at least 1", n)
		}
		c.spillDepth = n
		c.mark(OptSpillDepth)
		return nil
	}
}

// WithSpillCacheBytes sets the spill store's page-cache budget in bytes
// (floored at a few chunks by the store). Requires WithSpillDir.
func WithSpillCacheBytes(b int64) Option {
	return func(c *Config) error {
		if b <= 0 {
			return fmt.Errorf("WithSpillCacheBytes(%d): cache budget must be positive", b)
		}
		c.spillCache = b
		c.mark(OptSpillCacheBytes)
		return nil
	}
}

// WithFactory sets an explicit per-shard dictionary constructor on a
// sharded map, for structures not in the registry. Mutually exclusive
// with WithInner.
func WithFactory(f shard.Factory) Option {
	return func(c *Config) error {
		if f == nil {
			return fmt.Errorf("WithDictionary(nil): factory must be non-nil")
		}
		c.factory = f
		c.mark(OptFactory)
		return nil
	}
}

// Caps are a kind's capability flags, the feature matrix listing tools
// print and the capability-aware build/save paths consult. The type is
// core.Caps (so instance probes via core.CapsOf compare directly); for
// wrapper kinds ("sharded", "synchronized", "durable") a flag means the
// capability is forwarded when the inner kind has it, and the built
// wrapper's own core.CapsProber answers for a concrete nested inner.
type Caps = core.Caps

// KindInfo describes one registered dictionary kind.
type KindInfo struct {
	// Doc is a one-line description shown by listing tools.
	Doc string
	// Options names the options the kind accepts (the Opt* constants);
	// Build rejects everything else with a descriptive error.
	Options []string
	// Caps are the kind's capability flags; see Caps.
	Caps Caps
	// New builds the dictionary from a validated Config. Options not in
	// the accepted set are guaranteed unset; accepted options may still
	// carry kind-invalid values New must reject with an error.
	New func(*Config) (core.Dictionary, error)
}

type entry struct {
	info    KindInfo
	accepts map[string]bool
}

var reg = struct {
	sync.RWMutex
	m map[string]*entry
}{m: make(map[string]*entry)}

// Register adds a kind to the registry. It fails on an empty or
// duplicate name and on a nil build function; external packages use it
// (via the facade) to make their structures buildable and enumerable
// alongside the built-ins.
func Register(kind string, info KindInfo) error {
	if kind == "" {
		return fmt.Errorf("repro: Register: kind name must be non-empty")
	}
	if info.New == nil {
		return fmt.Errorf("repro: Register(%q): build function must be non-nil", kind)
	}
	reg.Lock()
	defer reg.Unlock()
	if _, dup := reg.m[kind]; dup {
		return fmt.Errorf("repro: Register(%q): kind already registered", kind)
	}
	accepts := make(map[string]bool, len(info.Options))
	for _, o := range info.Options {
		accepts[o] = true
	}
	reg.m[kind] = &entry{info: info, accepts: accepts}
	return nil
}

// mustRegister is the init-time registration path for built-ins.
func mustRegister(kind string, info KindInfo) {
	if err := Register(kind, info); err != nil {
		panic(err)
	}
}

// Kinds returns the sorted names of every registered kind.
func Kinds() []string {
	reg.RLock()
	defer reg.RUnlock()
	out := make([]string, 0, len(reg.m))
	for k := range reg.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Info returns the registration record of a kind, for listing tools
// (docs and option matrices).
func Info(kind string) (KindInfo, bool) {
	reg.RLock()
	defer reg.RUnlock()
	e, ok := reg.m[kind]
	if !ok {
		return KindInfo{}, false
	}
	return e.info, true
}

// Accepts reports whether the kind is registered and accepts the named
// option.
func Accepts(kind, option string) bool {
	reg.RLock()
	defer reg.RUnlock()
	e, ok := reg.m[kind]
	return ok && e.accepts[option]
}

func lookup(kind string) (*entry, bool) {
	reg.RLock()
	defer reg.RUnlock()
	e, ok := reg.m[kind]
	return e, ok
}

// Build constructs the named kind from the unified options. Unknown
// kinds, out-of-range values, and options the kind does not accept all
// return descriptive errors.
func Build(kind string, opts ...Option) (core.Dictionary, error) {
	e, ok := lookup(kind)
	if !ok {
		return nil, fmt.Errorf("repro: unknown dictionary kind %q (registered kinds: %s)",
			kind, strings.Join(Kinds(), ", "))
	}
	cfg := emptyConfig
	if len(opts) > 0 {
		var err error
		if cfg, err = configFor(e, kind, opts); err != nil {
			return nil, err
		}
	}
	d, err := e.info.New(cfg)
	if err != nil {
		return nil, buildErr(kind, err)
	}
	if d == nil {
		return nil, fmt.Errorf("repro: building %q: builder returned a nil dictionary", kind)
	}
	return d, nil
}

// configFor folds opts into a Config validated against one kind's
// accepted-option set — the shared front half of Build and Save.
func configFor(e *entry, kind string, opts []Option) (*Config, error) {
	cfg, err := apply(opts)
	if err != nil {
		return nil, buildErr(kind, err)
	}
	var rejected []string
	for name := range cfg.set {
		if !e.accepts[name] {
			rejected = append(rejected, name)
		}
	}
	if len(rejected) > 0 {
		sort.Strings(rejected)
		accepted := append([]string(nil), e.info.Options...)
		sort.Strings(accepted)
		what := "no options"
		if len(accepted) > 0 {
			what = strings.Join(accepted, ", ")
		}
		return nil, fmt.Errorf("repro: kind %q does not accept %s (accepted options: %s)",
			kind, strings.Join(rejected, ", "), what)
	}
	return cfg, nil
}

// buildErr adds the package prefix and kind context to a build
// failure. Wrapper kinds ("sharded", "synchronized") propagate inner
// Build errors that already carry the "repro:" prefix; strip it so the
// surfaced message reads "repro: building "sharded": unknown ..."
// rather than stuttering the prefix.
func buildErr(kind string, err error) error {
	return fmt.Errorf("repro: building %q: %s", kind, strings.TrimPrefix(err.Error(), "repro: "))
}

// apply folds options into a fresh Config, failing on the first
// option-level error. Nil options are ignored so callers can build
// option slices conditionally.
func apply(opts []Option) (*Config, error) {
	cfg := newConfig()
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(cfg); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// emptyConfig is what no options at all fold into. Builders only read
// their Config, so every option-less Build shares this one: building a
// kind with its defaults allocates the structure and nothing else.
var emptyConfig = newConfig()
