package server

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The SIGKILL recovery test re-executes this test binary as a real
// server process (the durability lane's pattern): the child serves a
// durable sharded composition, the parent ingests acknowledged batches
// over the wire, SIGKILLs the child mid-stream, reopens the WAL
// directory in-process, and requires every acknowledged element back.
const (
	childEnv     = "REPRO_SERVER_CHILD"
	childWALEnv  = "REPRO_SERVER_WALDIR"
	childAddrEnv = "REPRO_SERVER_ADDRFILE"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		childServe()
		return
	}
	os.Exit(m.Run())
}

// childServe runs the server half of the recovery test until killed.
func childServe() {
	h, err := Open(Spec{Kind: "gcola", Shards: 2, WALDir: os.Getenv(childWALEnv)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	addrFile := os.Getenv(childAddrEnv)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	srv := New(h.Dict)
	srv.Serve(ln) // until SIGKILL
}

// recoveryKey spreads sequential indices over the key space (and over
// both shards), mirroring the streambench recovery lane.
func recoveryKey(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }

func TestSIGKILLRecoversAcknowledgedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	walDir := t.TempDir()
	addrFile := filepath.Join(t.TempDir(), "addr")

	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		childEnv+"=1", childWALEnv+"="+walDir, childAddrEnv+"="+addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(raw))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child never published its address")
		}
		time.Sleep(20 * time.Millisecond)
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Acknowledged prefix: every batch below is confirmed over the wire
	// before the next is sent, so its write-ahead records are on disk.
	const batches, batchSize = 40, 64
	acked := 0
	for b := 0; b < batches; b++ {
		elems := make([]core.Element, batchSize)
		for j := range elems {
			k := recoveryKey(b*batchSize + j)
			elems[j] = core.Element{Key: k, Value: k ^ 0xFF}
		}
		if err := cl.PutBatch(elems); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		acked += batchSize
	}
	// One unacknowledged in-flight batch, then SIGKILL mid-stream: the
	// crash may land before, inside, or after its log writes.
	inflight := make([]core.Element, batchSize)
	for j := range inflight {
		k := recoveryKey(acked + j)
		inflight[j] = core.Element{Key: k, Value: k ^ 0xFF}
	}
	if err := cl.SendBatch(inflight); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true

	// Reopen the WAL directory in-process and demand the acknowledged
	// prefix back, element for element.
	h, err := Open(Spec{Kind: "gcola", Shards: 2, WALDir: walDir})
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	defer h.Close()
	if h.Spec.Shards != 2 {
		t.Fatalf("reopen lost the shard count: %d", h.Spec.Shards)
	}
	for i := 0; i < acked; i++ {
		k := recoveryKey(i)
		v, ok := h.Dict.Search(k)
		if !ok || v != k^0xFF {
			t.Fatalf("acknowledged element %d (key %#x) lost after SIGKILL: (%d, %v)", i, k, v, ok)
		}
	}
	if got := h.Dict.Len(); got < acked {
		t.Fatalf("recovered Len = %d, below acknowledged %d", got, acked)
	}
}

// TestDirectoryPinsComposition: reopening a WAL directory with a
// different kind or shard count must be refused, never silently
// resharded.
func TestDirectoryPinsComposition(t *testing.T) {
	walDir := t.TempDir()
	h, err := Open(Spec{Kind: "gcola", Shards: 2, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	h.Dict.Insert(1, 2)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Spec{Kind: "btree", Shards: 2, WALDir: walDir}); err == nil {
		t.Fatal("reopen with a different kind accepted")
	}
	if _, err := Open(Spec{Kind: "gcola", Shards: 8, WALDir: walDir}); err == nil {
		t.Fatal("reopen with a different shard count accepted")
	}

	// Zero shards adopts the directory's count.
	r, err := Open(Spec{Kind: "gcola", WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Spec.Shards != 2 {
		t.Fatalf("adopted %d shards, want 2", r.Spec.Shards)
	}
	if v, ok := r.Dict.Search(1); !ok || v != 2 {
		t.Fatalf("recovered Search(1) = (%d, %v)", v, ok)
	}
}

// fourShardDir returns a WAL directory of four gcola shards holding
// n keys, in which every shard has checkpointed at least once.
func fourShardDir(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	h, err := Open(Spec{Kind: "gcola", Shards: 4, WALDir: dir, CheckpointEvery: n / 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := recoveryKey(i)
		h.Dict.Insert(k, k^0xFF)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDirectoryRefusesIncompleteShards: a WAL directory whose logs or
// checkpoints are not exactly shard-00 … shard-(S-1) for a shard count
// S is refused, naming the file that is missing, whatever count the
// spec asks for. Reopening any of them would lose a shard's keys.
func TestDirectoryRefusesIncompleteShards(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remove []string
		want   string
	}{
		{"log", []string{"shard-02.wal"}, "but not shard-02.wal; if the directory's first open crashed, nothing was acknowledged: remove the directory"},
		{"checkpoint", []string{"shard-02.wal.ckpt"}, "but not shard-02.wal.ckpt"},
		{"three shards", []string{"shard-03.wal", "shard-03.wal.ckpt"}, "3 shard logs, which is not a shard count: shard-03.wal is missing"},
		{"shard 00", []string{"shard-00.wal", "shard-00.wal.ckpt"}, "but not shard-00.wal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := fourShardDir(t, 10_000)
			for _, name := range tc.remove {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
			for _, shards := range []int{0, 2, 4} {
				h, err := Open(Spec{Kind: "gcola", Shards: shards, WALDir: dir})
				if err == nil {
					h.Close()
					t.Fatalf("Shards %d: reopened with %s removed", shards, tc.remove)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Shards %d: error %q does not say %q", shards, err, tc.want)
				}
			}
		})
	}
}

// TestDirectoryIgnoresStaleMeta: an earlier build kept a serve.meta in
// the directory; one that disagrees with the logs changes nothing.
func TestDirectoryIgnoresStaleMeta(t *testing.T) {
	const n = 10_000
	dir := fourShardDir(t, n)
	stale := []byte(`{"schema":1,"kind":"btree","shards":8}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "serve.meta"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := Open(Spec{Kind: "gcola", WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Spec.Shards != 4 {
		t.Fatalf("adopted %d shards, want the logs' 4", h.Spec.Shards)
	}
	for i := 0; i < n; i++ {
		k := recoveryKey(i)
		if v, ok := h.Dict.Search(k); !ok || v != k^0xFF {
			t.Fatalf("key %d: Search = (%d, %v)", i, v, ok)
		}
	}
}
