package server

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// startServer serves d on an ephemeral loopback listener and returns
// the address; cleanup drains on test exit.
func startServer(t *testing.T, d core.Dictionary) (*Server, string) {
	t.Helper()
	srv := New(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func mustBuild(t *testing.T, kind string, opts ...registry.Option) core.Dictionary {
	t.Helper()
	d, err := registry.Build(kind, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestServerOracle drives a randomized op stream over a real socket
// and checks every reply against a map oracle (plus a sorted mirror
// for ranges).
func TestServerOracle(t *testing.T) {
	d := mustBuild(t, "sharded", registry.WithShards(4), registry.WithInner("gcola"))
	srv, addr := startServer(t, d)
	if !srv.Caps().Delete {
		t.Fatal("sharded(gcola) should serve deletes")
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
	const keySpace = 1 << 12
	for i := 0; i < 6000; i++ {
		key := uint64(rng.Intn(keySpace))
		switch op := rng.Intn(10); {
		case op < 4: // put
			val := rng.Uint64()
			if err := cl.Put(key, val); err != nil {
				t.Fatalf("op %d: PUT: %v", i, err)
			}
			oracle[key] = val
		case op < 7: // get
			v, ok, err := cl.Get(key)
			if err != nil {
				t.Fatalf("op %d: GET: %v", i, err)
			}
			want, wantOK := oracle[key]
			if ok != wantOK || (ok && v != want) {
				t.Fatalf("op %d: GET(%d) = (%d, %v), oracle (%d, %v)", i, key, v, ok, want, wantOK)
			}
		case op < 8: // del
			present, err := cl.Del(key)
			if err != nil {
				t.Fatalf("op %d: DEL: %v", i, err)
			}
			_, wantPresent := oracle[key]
			if present != wantPresent {
				t.Fatalf("op %d: DEL(%d) = %v, oracle %v", i, key, present, wantPresent)
			}
			delete(oracle, key)
		case op < 9: // batch put
			n := 1 + rng.Intn(64)
			elems := make([]core.Element, n)
			for j := range elems {
				elems[j] = core.Element{Key: uint64(rng.Intn(keySpace)), Value: rng.Uint64()}
			}
			if err := cl.PutBatch(elems); err != nil {
				t.Fatalf("op %d: BATCH: %v", i, err)
			}
			for _, e := range elems {
				oracle[e.Key] = e.Value
			}
		default: // range
			lo := key
			hi := lo + uint64(rng.Intn(256))
			got, err := cl.Range(lo, hi, MaxBatchElems)
			if err != nil {
				t.Fatalf("op %d: RANGE: %v", i, err)
			}
			var want []core.Element
			for k, v := range oracle {
				if k >= lo && k <= hi {
					want = append(want, core.Element{Key: k, Value: v})
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a].Key < want[b].Key })
			if len(got) != len(want) {
				t.Fatalf("op %d: RANGE[%d,%d] returned %d elements, oracle %d", i, lo, hi, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("op %d: RANGE[%d,%d][%d] = %+v, oracle %+v", i, lo, hi, j, got[j], want[j])
				}
			}
		}
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// COLA Len counts not-yet-merged duplicate versions from
	// overwrites, so it upper-bounds the live mapping.
	if st.Len < uint64(len(oracle)) {
		t.Fatalf("STATS Len = %d, below oracle %d", st.Len, len(oracle))
	}
	if st.Caps != srv.Caps() {
		t.Fatalf("STATS caps %+v, server %+v", st.Caps, srv.Caps())
	}
	if st.Classes[ClassGet].Count == 0 || st.Classes[ClassPut].Count == 0 {
		t.Fatal("STATS histograms empty after a mixed stream")
	}
}

// TestServerPipelining: a burst of sends followed by in-order replies,
// exercising the PUT-coalescing path (consecutive buffered PUTs apply
// as one batch but acknowledge individually).
func TestServerPipelining(t *testing.T) {
	d := mustBuild(t, "sharded", registry.WithShards(2), registry.WithInner("gcola"))
	_, addr := startServer(t, d)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const puts = 500
	for i := 0; i < puts; i++ {
		if err := cl.SendPut(uint64(i), uint64(i)*3); err != nil {
			t.Fatal(err)
		}
	}
	// Tail the burst with a GET so the reply stream length is puts+1.
	if err := cl.SendGet(42); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < puts; i++ {
		r, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if r.Status != StatusOK {
			t.Fatalf("reply %d: %s", i, statusName(r.Status))
		}
	}
	r, err := cl.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusOK || binary.BigEndian.Uint64(r.Payload) != 42*3 {
		t.Fatalf("pipelined GET answered %s %v", statusName(r.Status), r.Payload)
	}
	if got := d.Len(); got != puts {
		t.Fatalf("Len = %d after %d distinct PUTs", got, puts)
	}
}

// TestServerUnsupportedDel: a dictionary without a Deleter answers DEL
// with the typed wire error and the connection stays usable.
func TestServerUnsupportedDel(t *testing.T) {
	d := mustBuild(t, "deamortized")
	srv, addr := startServer(t, d)
	if srv.Caps().Delete {
		t.Fatal("deamortized should not advertise Delete")
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Del(9); err == nil {
		t.Fatal("DEL on a delete-less kind succeeded")
	}
	// Connection still serves.
	if err := cl.Put(9, 18); err != nil {
		t.Fatalf("PUT after unsupported DEL: %v", err)
	}
	if v, ok, err := cl.Get(9); err != nil || !ok || v != 18 {
		t.Fatalf("GET after unsupported DEL = (%d, %v, %v)", v, ok, err)
	}
}

// TestServerBadFramePoisons: an unknown opcode is answered BadFrame and
// the connection closes (framing can no longer be trusted).
func TestServerBadFramePoisons(t *testing.T) {
	d := mustBuild(t, "synchronized", registry.WithInner("gcola"))
	_, addr := startServer(t, d)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write(appendFrame(nil, 200, 1, 2, 3))
	var hdr [headerBytes + 1]byte
	if _, err := readFull(nc, hdr[:]); err != nil {
		t.Fatalf("reading BadFrame reply: %v", err)
	}
	if hdr[4] != StatusBadFrame {
		t.Fatalf("status %s, want bad-frame", statusName(hdr[4]))
	}
}

// TestServerTooLargeFrame: an oversized frame header is answered
// TooLarge, then the connection closes.
func TestServerTooLargeFrame(t *testing.T) {
	d := mustBuild(t, "synchronized", registry.WithInner("gcola"))
	_, addr := startServer(t, d)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrameBytes+1)
	nc.Write(huge[:])
	var hdr [headerBytes + 1]byte
	if _, err := readFull(nc, hdr[:]); err != nil {
		t.Fatalf("reading TooLarge reply: %v", err)
	}
	if hdr[4] != StatusTooLarge {
		t.Fatalf("status %s, want too-large", statusName(hdr[4]))
	}
	// The server hangs up; the next read must fail.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if _, err := nc.Read(one[:]); err == nil {
		t.Fatal("connection still open after a poisoned frame")
	}
}

// TestGracefulDrain: Shutdown answers everything already received and
// Serve returns nil.
func TestGracefulDrain(t *testing.T) {
	d := mustBuild(t, "sharded", registry.WithShards(2), registry.WithInner("gcola"))
	srv := New(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 100; i++ {
		if err := cl.Put(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("listener still accepting after drain")
	}
	if got := d.Len(); got != 100 {
		t.Fatalf("Len = %d after drain", got)
	}
}

// TestGetHotPathZeroAlloc pins the acceptance criterion: the server's
// GET handler performs no allocation once its buffers are warm.
func TestGetHotPathZeroAlloc(t *testing.T) {
	d := mustBuild(t, "sharded", registry.WithShards(2), registry.WithInner("gcola"))
	for i := uint64(0); i < 4096; i++ {
		d.Insert(i*2, i)
	}
	srv := New(d)
	c := &conn{s: srv, out: make([]byte, 0, 1<<12)}
	payload := make([]byte, 8)
	key := uint64(0)
	if allocs := testing.AllocsPerRun(2000, func() {
		c.out = c.out[:0]
		binary.BigEndian.PutUint64(payload, key%8192)
		c.handleGet(payload)
		key += 3
	}); allocs != 0 {
		t.Fatalf("GET hot path allocates %g per op, want 0", allocs)
	}
}

// TestServedRequestsZeroAlloc extends the zero-allocation contract from
// the GET handler to the whole served path of every fixed-size request:
// a pipelined window of GETs, PUTs (two of them back to back, so the
// server coalesces them), DELs and RANGEs, built by Client, sent over a
// loopback socket, read, dispatched and answered by a live connection's
// request loop, and its replies read back. Once both sides' buffers
// exist and the structure has every level its keys need, a window must
// allocate nothing in either process half.
func TestServedRequestsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, and the shard map pools its batch and Range scratch")
	}
	d := mustBuild(t, "sharded", registry.WithShards(2), registry.WithInner("gcola"))
	for i := uint64(0); i < 4096; i++ {
		d.Insert(i*2, i)
	}
	_, addr := startServer(t, d)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	key := uint64(0)
	window := func() {
		const requests = 6
		for i := 0; i < 4; i++ {
			k := key % 8192
			key += 7
			errs := []error{
				cl.SendGet(k),
				cl.SendPut(k+1, k),
				cl.SendPut(k+3, k),
				cl.SendDel(k + 3),
				cl.SendRange(k, k+40, 8),
				cl.SendGet(k + 1),
			}
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*requests; i++ {
			r, err := cl.ReadReply()
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != StatusOK && r.Status != StatusNotFound {
				t.Fatalf("reply %d: %s", i, StatusText(r.Status))
			}
		}
	}
	for i := 0; i < 2000; i++ { // every level the keys need, every buffer
		window()
	}
	if allocs := testing.AllocsPerRun(500, window); allocs != 0 {
		t.Fatalf("a pipelined window of 24 served requests allocates %g times, want 0", allocs)
	}
}

// readFull is io.ReadFull without importing io in tests that otherwise
// manipulate raw frames.
func readFull(nc net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := nc.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
