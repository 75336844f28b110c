package registry

import (
	"io"
	"os"
	"testing"

	"repro/internal/shard"
)

// TestShardedSpillBuildLeavesNoSpillDir: the inner a sharded build
// makes to validate its spec is closed again, so once every shard is
// closed the spill directory is empty.
func TestShardedSpillBuildLeavesNoSpillDir(t *testing.T) {
	dir := t.TempDir()
	d, err := Build("sharded", WithShards(2), WithInner("gcola", WithSpillDir(dir)))
	if err != nil {
		t.Fatal(err)
	}
	m := d.(*shard.Map)
	for i := 0; i < m.NumShards(); i++ {
		if err := m.InnerAt(i).(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in the spill directory: %s", e.Name())
	}
}
