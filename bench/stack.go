package main

// Building and serving the three served stacks through the repo's
// public constructors, untraced (exactly what reproserve would build)
// or traced (the same composition with span shims at seams A, B, C).

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/durable"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/shard"
)

// tracer holds the recorders of one traced stack. All share one epoch
// so spans of different layers compare directly.
type tracer struct {
	epoch      time.Time
	win        *recorder // driver: one span per window round trip
	a, b, c    *recorder // seams A, B, C
	hasDurable bool      // seam C exists (B and C differ) only under durable
}

// Span capacities: the traced closed-loop phase records at most one
// span per op per seam; traceCap bounds a 10 s phase with room to
// spare, and a full buffer shows up as dropped spans, not a crash.
const traceCap = 12 << 20

func newTracer(spanCap int) *tracer {
	epoch := time.Now()
	return &tracer{
		epoch: epoch,
		win:   newRecorder(epoch, spanCap/pipeline+1024, 0),
		a:     newRecorder(epoch, spanCap, spanCap),
		b:     newRecorder(epoch, spanCap, 0),
		c:     newRecorder(epoch, spanCap, 0),
	}
}

// reset forgets everything recorded so far: set-up (the preload's BATCH
// frames) is not part of the traced phase.
func (t *tracer) reset() {
	for _, r := range []*recorder{t.win, t.a, t.b, t.c} {
		r.n.Store(0)
		r.nkeys.Store(0)
	}
}

func (t *tracer) dropped() int64 {
	return t.win.dropped.Load() + t.a.dropped.Load() + t.b.dropped.Load() + t.c.dropped.Load()
}

// stack is one served composition, listening on loopback.
type stack struct {
	dir     string // WAL, checkpoint and spill files live here
	srv     *server.Server
	ln      net.Listener
	serving chan error
	m       *shard.Map        // the shard map under the server
	colas   []core.Dictionary // per shard: the structure itself (a gcola), beneath every wrapper and shim
	closers []func() error    // released in order by close
	handle  *server.Handle    // untraced durable stack only
	durable []*durable.Dict   // traced durable stack only
}

func (s *stack) addr() string { return s.ln.Addr().String() }

// serve starts serving d on a fresh loopback listener.
func (s *stack) serve(d core.Dictionary) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv, s.ln, s.serving = server.New(d), ln, make(chan error, 1)
	go func() { s.serving <- s.srv.Serve(ln) }()
	return nil
}

// close drains the server and releases everything the stack opened
// (WAL files, spill stores). Every step runs even if an earlier one
// fails.
func (s *stack) close() error {
	var err error
	if s.srv != nil {
		err = errors.Join(s.srv.Shutdown(5*time.Second), <-s.serving)
	}
	for _, c := range s.closers {
		err = errors.Join(err, c())
	}
	return err
}

// gcolaOpts are the options of the per-shard structure: spill settings
// for the out-of-core workload, none otherwise.
func gcolaOpts(w workloadSpec, dir string) []registry.Option {
	if !w.spill {
		return nil
	}
	return []registry.Option{
		registry.WithSpillDir(dir),
		registry.WithSpillDepth(w.spillDepth),
		registry.WithSpillCacheBytes(w.spillCache),
	}
}

// openStack builds and serves workload w's stack under dir. With a nil
// tracer it is the stock composition: server.Open for the durable and
// the plain volatile stack, registry.Build("sharded", …) for the
// spilled one. With a tracer the same pieces are assembled by hand —
// as server/spec.go assembles them — so a shim can sit at each seam.
func openStack(w workloadSpec, dir string, tr *tracer) (*stack, error) {
	s := &stack{dir: dir}
	var served core.Dictionary
	var err error
	switch {
	case tr != nil:
		served, err = s.buildTraced(w, dir, tr)
	case w.spill:
		served, err = registry.Build("sharded",
			registry.WithShards(numShards),
			registry.WithInner("gcola", gcolaOpts(w, dir)...))
		if err == nil {
			m := served.(*shard.Map)
			for i := 0; i < m.NumShards(); i++ {
				s.colas = append(s.colas, m.InnerAt(i))
				s.closers = append(s.closers, m.InnerAt(i).(io.Closer).Close)
			}
		}
	default:
		spec := server.Spec{Kind: "gcola", Shards: numShards}
		if w.durable {
			spec.WALDir, spec.CheckpointEvery = dir, w.checkpointEvery
		}
		var h *server.Handle
		h, err = server.Open(spec)
		if err == nil {
			served = h.Dict
			m := served.(*shard.Map)
			s.closers = append(s.closers, h.Close)
			for i := 0; i < m.NumShards(); i++ {
				inner := m.InnerAt(i)
				if dd, ok := inner.(*durable.Dict); ok {
					inner = dd.Unwrap()
				}
				s.colas = append(s.colas, inner)
			}
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	if err := s.serve(served); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// buildTraced assembles the traced composition: spanA(shard.Map of
// spanB(durable(spanC(gcola)))) for the durable workload and
// spanA(shard.Map of spanB(gcola)) for the volatile ones, where seam B
// doubles as the structure's own span.
func (s *stack) buildTraced(w workloadSpec, dir string, tr *tracer) (core.Dictionary, error) {
	tr.hasDurable = w.durable
	inners := make([]core.Dictionary, numShards)
	for i := range inners {
		if !w.durable {
			d, err := registry.Build("gcola", gcolaOpts(w, dir)...)
			if err != nil {
				return nil, err
			}
			if cl, ok := d.(io.Closer); ok {
				s.closers = append(s.closers, cl.Close)
			}
			s.colas = append(s.colas, d)
			inners[i] = newSpanDict(d, tr.b, i)
			continue
		}
		spanKindRecorder.Store(tr.c)
		d, err := registry.Build("durable",
			registry.WithWALPath(filepath.Join(dir, fmt.Sprintf("shard-%02d.wal", i))),
			registry.WithCheckpointEvery(w.checkpointEvery),
			registry.WithInner(spanKind))
		spanKindRecorder.Store(nil)
		if err != nil {
			return nil, err
		}
		dd := d.(*durable.Dict)
		s.closers = append(s.closers, dd.Close)
		c := dd.Unwrap().(*spanDict)
		c.shard = uint8(i)
		s.colas = append(s.colas, c.inner)
		inners[i] = newSpanDict(dd, tr.b, i)
	}
	m := shard.New(
		shard.WithShards(numShards),
		shard.WithDictionary(func(i int, _ *dam.Space) core.Dictionary { return inners[i] }),
	)
	return newSpanDict(m, tr.a, 0), nil
}
