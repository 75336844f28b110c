package main

// One pass over a served workload: set-up, the closed-loop measured
// phase, an optional open-loop phase, and verification (for the durable
// stack: close, timed recovery, readback of acknowledged PUTs).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// runEnv is what every pass of one benchmark run shares.
type runEnv struct {
	w     workloadSpec
	quick bool // -quick: the micro-benchmarks shrink too
	seed  uint64
	dur   time.Duration // --seconds
	base  string        // scratch directory, removed when the run ends
	perm  []uint32      // preload order, generated once per run
	dirs  int
}

// freshDir makes a new empty directory under the run's scratch base:
// every set-up starts from fresh state.
func (e *runEnv) freshDir() (string, error) {
	e.dirs++
	dir := filepath.Join(e.base, fmt.Sprintf("state-%03d", e.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

func (e *runEnv) scenario(seed uint64) (workload.Scenario, error) {
	sc, err := workload.Parse(e.w.scenario)
	if err != nil {
		return sc, err
	}
	sc.KeySpace, sc.Seed = e.w.keySpace, seed
	return sc, nil
}

// setUp builds, serves and preloads a fresh stack and connects the
// driver: everything that happens before the first measured op.
func (e *runEnv) setUp(tr *tracer) (*stack, []*loadConn, time.Duration, error) {
	dir, err := e.freshDir()
	if err != nil {
		return nil, nil, 0, err
	}
	sc, err := e.scenario(e.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	st, err := openStack(e.w, dir, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := preload(st.addr(), e.perm); err != nil {
		return nil, nil, 0, errors.Join(err, st.close())
	}
	conns, err := dialConns(st.addr(), sc, uint64(len(e.perm)))
	if err != nil {
		return nil, nil, 0, errors.Join(err, st.close())
	}
	return st, conns, time.Since(t0), nil
}

// setUpOnly times one more set-up on fresh state and tears it down.
func (e *runEnv) setUpOnly() (time.Duration, error) {
	st, conns, d, err := e.setUp(nil)
	if err != nil {
		return 0, err
	}
	closeConns(conns)
	return d, st.close()
}

// layerCounts are the counters read through public accessors while the
// stack is quiescent.
type layerCounts struct {
	stats       core.Stats // summed over shards
	chunkReads  uint64
	chunkWrites uint64
	spillBytes  int64
}

// spiller is the part of a spilled gcola the benchmark reads.
type spiller interface {
	core.ActualTransferCounter
	SpillFileStats() (files int, bytes int64, err error)
}

func (s *stack) counts() (layerCounts, error) {
	var c layerCounts
	for _, d := range s.colas {
		if st, ok := d.(core.Statser); ok {
			c.stats.Add(st.Stats())
		}
		if sp, ok := d.(spiller); ok {
			r, w := sp.ActualTransfers()
			c.chunkReads += r
			c.chunkWrites += w
			_, bytes, err := sp.SpillFileStats()
			if err != nil {
				return c, err
			}
			c.spillBytes += bytes
		}
	}
	return c, nil
}

// servedPass is what one pass measured.
type servedPass struct {
	setup     time.Duration
	closed    phaseStats
	cpu       float64 // CPU seconds over the closed-loop phase
	sliceCPU  [numSlices]float64
	io        procIO // /proc/self/io delta over the closed-loop phase
	before    layerCounts
	after     layerCounts
	peakRSS   float64
	open      *phaseStats
	recovery  time.Duration
	readback  *phaseStats
	attempted uint64
	failed    uint64
}

// runServed makes one pass. A tracer makes it the traced pass; openLoop
// appends the fixed-rate phase after the closed-loop one.
func (e *runEnv) runServed(tr *tracer, openLoop bool) (*servedPass, error) {
	st, conns, setup, err := e.setUp(tr)
	if err != nil {
		return nil, err
	}
	p := &servedPass{setup: setup}
	dir := st.dir
	fail := func(err error) (*servedPass, error) {
		closeConns(conns)
		return nil, errors.Join(err, st.close())
	}

	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
		tr.reset()
		for _, c := range conns {
			c.win = tr.win
		}
	}
	if p.before, err = st.counts(); err != nil {
		return fail(err)
	}
	io0, err := readProcIO()
	if err != nil {
		return fail(err)
	}
	// Sample CPU time at every slice boundary while the load runs.
	begin := time.Now()
	cpuAt := make([]float64, numSlices+1)
	var cpuErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := range cpuAt {
			time.Sleep(time.Until(begin.Add(e.dur * time.Duration(i) / numSlices)))
			var err error
			if cpuAt[i], err = cpuSeconds(); err != nil {
				cpuErr = err
			}
		}
	}()
	runConns(conns, func(_ int, c *loadConn) { c.closedLoop(epoch, e.dur) })
	<-sampled
	if cpuErr != nil {
		return fail(cpuErr)
	}
	if p.peakRSS, err = peakRSSMiB(); err != nil {
		return fail(err)
	}
	io1, err := readProcIO()
	if err != nil {
		return fail(err)
	}
	for i := range p.sliceCPU {
		p.sliceCPU[i] = cpuAt[i+1] - cpuAt[i]
	}
	cpu0, cpu1 := cpuAt[0], cpuAt[numSlices]
	p.cpu, p.io = cpu1-cpu0, io1.sub(io0)
	if p.after, err = st.counts(); err != nil {
		return fail(err)
	}
	p.closed = foldStats(conns)
	var acked []uint64
	for _, c := range conns {
		acked = append(acked, c.acked...)
	}
	closeConns(conns)
	if p.closed.err != nil {
		return nil, errors.Join(p.closed.err, st.close())
	}
	p.attempted, p.failed = p.closed.attempted, p.closed.failed

	if openLoop {
		sc, err := e.scenario(e.seed + 0x6F70656E) // a stream the closed loop did not play
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		oc, err := dialConns(st.addr(), sc, uint64(len(e.perm)))
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		rate := float64(e.w.openRate) / numConns
		runConns(oc, func(_ int, c *loadConn) { c.openLoop(epoch, e.dur, rate) })
		open := foldStats(oc)
		closeConns(oc)
		if open.err != nil {
			return nil, errors.Join(open.err, st.close())
		}
		p.open = &open
		p.attempted += open.attempted
		p.failed += open.failed
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	if !e.w.durable || tr != nil {
		return p, nil
	}

	// Durability: reopen the directory the stack just closed, and read
	// back a sample of the PUTs it acknowledged.
	t0 := time.Now()
	st, err = openStack(e.w, dir, nil)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	p.recovery = time.Since(t0)
	sc, err := e.scenario(e.seed)
	if err != nil {
		return nil, errors.Join(err, st.close())
	}
	rc, err := dialConns(st.addr(), sc, 0)
	if err != nil {
		return nil, errors.Join(err, st.close())
	}
	runConns(rc, func(i int, c *loadConn) {
		c.readback(epoch, acked[len(acked)*i/numConns:len(acked)*(i+1)/numConns])
	})
	rb := foldStats(rc)
	closeConns(rc)
	p.readback = &rb
	p.attempted += rb.attempted
	p.failed += rb.failed
	return p, errors.Join(rb.err, st.close())
}
