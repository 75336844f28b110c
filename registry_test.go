package repro

// Tests for the v2 construction surface: Build/Kinds/Register, the
// unified option set with per-kind validation, iterator accessors, and
// the batch-insert adapter.

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestKindsCoverTheLineup checks every structure the facade promises is
// registered.
func TestKindsCoverTheLineup(t *testing.T) {
	want := []string{
		"cola", "basic-cola", "gcola", "deamortized", "deamortized-la",
		"la", "shuttle", "cobtree", "btree", "brt", "swbst",
		"sharded", "synchronized",
	}
	kinds := Kinds()
	if !sort.StringsAreSorted(kinds) {
		t.Errorf("Kinds() not sorted: %v", kinds)
	}
	have := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		have[k] = true
	}
	for _, k := range want {
		if !have[k] {
			t.Errorf("kind %q not registered", k)
		}
	}
	if len(want) < 9 {
		t.Fatal("lineup shrank below nine kinds")
	}
	for _, k := range kinds {
		if KindDoc(k) == "" {
			t.Errorf("kind %q has no doc line", k)
		}
	}
}

// TestBuildSmoke builds each kind with defaults and performs a few
// operations (deep behavior is covered by the conformance suite).
func TestBuildSmoke(t *testing.T) {
	for _, kind := range Kinds() {
		var opts []Option
		if KindCaps(kind).WAL {
			opts = append(opts, WithWALPath(filepath.Join(t.TempDir(), kind+".wal")))
		}
		d, err := Build(kind, opts...)
		if err != nil {
			t.Fatalf("Build(%q): %v", kind, err)
		}
		d.Insert(7, 70)
		if v, ok := d.Search(7); !ok || v != 70 {
			t.Fatalf("%s: Search(7) = (%d,%v)", kind, v, ok)
		}
		if d.Len() != 1 {
			t.Fatalf("%s: Len = %d", kind, d.Len())
		}
	}
}

// TestBuildErrors exercises the three validation layers: unknown kind,
// out-of-range option value, and option-not-accepted-by-kind.
func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name    string
		kind    string
		opts    []Option
		wantSub string
	}{
		{"unknown kind", "btre", nil, `unknown dictionary kind "btre"`},
		{"bad growth", "gcola", []Option{WithGrowthFactor(1)}, "growth factor must be at least 2"},
		{"bad density", "gcola", []Option{WithPointerDensity(0.9)}, "density must lie in [0, 0.5]"},
		{"bad epsilon", "la", []Option{WithEpsilon(1.5)}, "epsilon must lie in [0, 1]"},
		{"bad fanout value", "shuttle", []Option{WithFanout(1)}, "fanout must be at least 2"},
		{"shuttle fanout floor", "shuttle", []Option{WithFanout(3)}, "shuttle fanout must be at least 4"},
		{"btree fanout floor", "btree", []Option{WithFanout(2)}, "btree fanout must be at least 3"},
		{"tiny brt blocks", "brt", []Option{WithBlockBytes(64)}, "at least 4 elements"},
		{"epsilon on btree", "btree", []Option{WithEpsilon(0.5)}, "does not accept WithEpsilon"},
		{"space on swbst", "swbst", []Option{WithSpace(nil)}, "does not accept WithSpace"},
		{"space on sharded", "sharded", []Option{WithSpace(nil)}, "does not accept WithSpace"},
		{"growth on cola", "cola", []Option{WithGrowthFactor(4)}, "does not accept WithGrowthFactor"},
		{"bad shards", "sharded", []Option{WithShards(0)}, "shard count must be positive"},
		{"bad batch", "sharded", []Option{WithBatchSize(0)}, "batch size must be positive"},
		{"inner and factory", "sharded",
			[]Option{WithInner("cola"), WithDictionary(func(int, *Space) Dictionary { return MustBuild("cola") })},
			"mutually exclusive"},
		{"unknown inner", "sharded", []Option{WithInner("nope")}, `unknown dictionary kind "nope"`},
		{"unknown sync inner", "synchronized", []Option{WithInner("nope")}, `unknown inner kind "nope"`},
		{"inner space on sharded", "sharded",
			[]Option{WithInner("cola", WithSpace(nil))}, "private space"},
		{"shard dam over swbst", "sharded",
			[]Option{WithInner("swbst"), WithShardDAM(4096, 1<<16)}, "WithShardDAM has no effect"},
		{"sync space over swbst", "synchronized",
			[]Option{WithInner("swbst"), WithSpace(nil)}, `inner kind "swbst" does not accept WithSpace`},
		{"bad inner option", "sharded",
			[]Option{WithInner("gcola", WithGrowthFactor(1))}, "growth factor must be at least 2"},
		{"spill depth without dir", "gcola",
			[]Option{WithSpillDepth(3)}, "require WithSpillDir"},
		{"bad spill depth", "gcola",
			[]Option{WithSpillDir("."), WithSpillDepth(0)}, "spill depth must be at least 1"},
		{"bad spill cache", "gcola",
			[]Option{WithSpillDir("."), WithSpillCacheBytes(0)}, "cache budget must be positive"},
		{"spill on cola", "cola",
			[]Option{WithSpillDir(".")}, "does not accept WithSpillDir"},
		{"spill inner on durable", "durable",
			[]Option{WithWALPath(filepath.Join(t.TempDir(), "spill-inner.wal")),
				WithInner("gcola", WithSpillDir("."))}, "runtime wiring"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Build(tc.kind, tc.opts...)
			if err == nil {
				t.Fatalf("Build(%q) succeeded (%T), want error containing %q", tc.kind, d, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Build(%q) error = %q, want substring %q", tc.kind, err, tc.wantSub)
			}
		})
	}
}

// TestBuildOptionWiring spot-checks that options reach the underlying
// structures.
func TestBuildOptionWiring(t *testing.T) {
	g4, err := Build("gcola", WithGrowthFactor(4))
	if err != nil {
		t.Fatal(err)
	}
	if g := g4.(*COLA).Growth(); g != 4 {
		t.Errorf("gcola growth = %d, want 4", g)
	}

	lad, err := Build("la", WithEpsilon(1), WithBlockBytes(4096))
	if err != nil {
		t.Fatal(err)
	}
	la := lad.(*LookaheadArray)
	if la.Epsilon() != 1 || la.BlockElems() != 4096/ElementBytes {
		t.Errorf("la = (eps %g, B %d), want (1, %d)", la.Epsilon(), la.BlockElems(), 4096/ElementBytes)
	}

	sm, err := Build("sharded", WithShards(3), WithInner("btree"))
	if err != nil {
		t.Fatal(err)
	}
	if n := sm.(*ShardedMap).NumShards(); n != 4 {
		t.Errorf("shards = %d, want 4 (rounded up)", n)
	}

	store := NewStore(DefaultBlockBytes, 1<<16)
	bt, err := Build("btree", WithSpace(store.Space("bt")), WithLeafCapacity(4), WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		bt.Insert(i, i)
	}
	if store.Transfers() == 0 {
		t.Error("WithSpace not wired: no transfers recorded")
	}

	// Per-shard DAM accounting surfaces through TransferCounter.
	dm, err := Build("sharded", WithShards(2), WithShardDAM(DefaultBlockBytes, 1<<14))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100_000; i++ {
		dm.Insert(i, i)
	}
	if tc, ok := dm.(TransferCounter); !ok || tc.Transfers() == 0 {
		t.Errorf("sharded WithShardDAM: TransferCounter = %v", ok)
	}

	// Spill options reach the out-of-core gcola: real chunk I/O is
	// performed and reported through ActualTransferCounter.
	sp, err := Build("gcola", WithSpillDir(t.TempDir()), WithSpillDepth(2), WithSpillCacheBytes(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3000; i++ {
		sp.Insert(i, i)
	}
	atc, ok := sp.(ActualTransferCounter)
	if !ok {
		t.Fatalf("spilled gcola %T does not implement ActualTransferCounter", sp)
	}
	if reads, writes := atc.ActualTransfers(); reads == 0 || writes == 0 {
		t.Errorf("spilled gcola performed no actual I/O (reads=%d writes=%d)", reads, writes)
	}
	if err := sp.(interface{ Close() error }).Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestSynchronizedKind builds the wrapper kind with an inner selection
// and a forwarded space.
func TestSynchronizedKind(t *testing.T) {
	store := NewStore(DefaultBlockBytes, 1<<16)
	d, err := Build("synchronized", WithInner("btree"), WithSpace(store.Space("sync")))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := d.(*SynchronizedDictionary)
	if !ok {
		t.Fatalf("synchronized built %T", d)
	}
	for i := uint64(0); i < 10_000; i++ {
		s.Insert(i, i)
	}
	if store.Transfers() == 0 {
		t.Error("inner space not wired through synchronized")
	}
	if _, ok := s.Unwrap().(*BTree); !ok {
		t.Errorf("inner = %T, want *BTree", s.Unwrap())
	}
}

// testKind is a minimal conforming dictionary used to exercise external
// registration; it intentionally lives outside the built-in lineup.
type testKindDict struct {
	m map[uint64]uint64
}

func (d *testKindDict) Insert(k, v uint64) { d.m[k] = v }
func (d *testKindDict) Search(k uint64) (uint64, bool) {
	v, ok := d.m[k]
	return v, ok
}
func (d *testKindDict) Len() int { return len(d.m) }
func (d *testKindDict) Range(lo, hi uint64, fn func(Element) bool) {
	keys := make([]uint64, 0, len(d.m))
	for k := range d.m {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if !fn(Element{Key: k, Value: d.m[k]}) {
			return
		}
	}
}
func (d *testKindDict) Delete(k uint64) bool {
	_, ok := d.m[k]
	delete(d.m, k)
	return ok
}

// TestRegisterExternalKind registers a new kind and checks it becomes a
// first-class citizen: buildable, enumerable, usable as a wrapper
// inner, and rejected on duplicate registration.
func TestRegisterExternalKind(t *testing.T) {
	const kind = "test-hashmap"
	// The registry is package-global, so a previous run of this test in
	// the same process (go test -count=2) already registered the kind;
	// only an unexpected error is fatal.
	if err := Register(kind, KindInfo{
		Doc:     "test-only hash map",
		Options: nil,
		New: func(*BuildConfig) (Dictionary, error) {
			return &testKindDict{m: make(map[uint64]uint64)}, nil
		},
	}); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	found := false
	for _, k := range Kinds() {
		found = found || k == kind
	}
	if !found {
		t.Fatalf("Kinds() missing %q after Register", kind)
	}
	d, err := Build(kind)
	if err != nil {
		t.Fatal(err)
	}
	d.Insert(1, 2)
	if v, ok := d.Search(1); !ok || v != 2 {
		t.Fatalf("external kind Search = (%d,%v)", v, ok)
	}
	if _, err := Build(kind, WithFanout(8)); err == nil ||
		!strings.Contains(err.Error(), "does not accept WithFanout") {
		t.Fatalf("external kind accepted undeclared option: %v", err)
	}
	// Usable as a wrapper inner immediately.
	sm, err := Build("sharded", WithShards(2), WithInner(kind))
	if err != nil {
		t.Fatal(err)
	}
	sm.Insert(9, 90)
	if v, ok := sm.Search(9); !ok || v != 90 {
		t.Fatalf("sharded over external kind Search = (%d,%v)", v, ok)
	}
	// Duplicate and degenerate registrations fail.
	if err := Register(kind, KindInfo{New: func(*BuildConfig) (Dictionary, error) { return nil, nil }}); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if err := Register("", KindInfo{New: func(*BuildConfig) (Dictionary, error) { return nil, nil }}); err == nil {
		t.Error("empty-name Register succeeded")
	}
	if err := Register("test-nil-new", KindInfo{}); err == nil {
		t.Error("nil-New Register succeeded")
	}
}

// TestInsertBatchAdapter checks the generic fallback against a
// structure with no native batch path.
func TestInsertBatchAdapter(t *testing.T) {
	d := MustBuild("swbst")
	if _, ok := d.(BatchInserter); ok {
		t.Skip("swbst grew a native batch path; pick another fallback kind")
	}
	InsertBatch(d, []Element{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 1, Value: 11}})
	if v, _ := d.Search(1); v != 11 {
		t.Fatalf("last-write-wins violated: Search(1) = %d", v)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

// TestIteratorAccessors covers All/Ascend/Elements including early
// termination propagating into Range.
func TestIteratorAccessors(t *testing.T) {
	d := MustBuild("cola")
	for i := uint64(0); i < 100; i += 2 {
		d.Insert(i, i*3)
	}
	var got []uint64
	for k, v := range Ascend(d, 10, 20) {
		if v != k*3 {
			t.Fatalf("Ascend value mismatch at %d: %d", k, v)
		}
		got = append(got, k)
	}
	want := []uint64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("Ascend keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend keys = %v, want %v", got, want)
		}
	}
	n := 0
	for range All(d) {
		n++
	}
	if n != 50 {
		t.Fatalf("All visited %d, want 50", n)
	}
	n = 0
	for e := range Elements(d, 0, ^uint64(0)) {
		if e.Value != e.Key*3 {
			t.Fatalf("Elements mismatch: %v", e)
		}
		n++
		if n == 7 {
			break
		}
	}
	if n != 7 {
		t.Fatalf("early break visited %d", n)
	}
}
