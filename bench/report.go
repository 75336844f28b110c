package main

// Turning passes into named metrics.

import (
	"fmt"
	"time"
)

// sliceCols names the columns of a sliceRow: the end-to-end metrics that
// are computed per time slice (per cycle, for the embedded workload).
var sliceCols = [...]string{"throughput_ops_s", "cpu_us_per_op", "put_p50_us", "put_p99_us", "get_p50_us", "get_p99_us"}

// sliceRow is one slice's value of each sliceCols metric.
type sliceRow [len(sliceCols)]float64

// sliceMedians reports each sliceCols metric as the median of its
// column over rep.Slices.
func (rep *report) sliceMedians() {
	for col, name := range sliceCols {
		xs := make([]float64, len(rep.Slices))
		for i, row := range rep.Slices {
			xs[i] = row[col]
		}
		rep.EndToEnd[name] = median(xs)
	}
}

// benchServed runs a served workload: the untraced pass that yields
// the end-to-end metrics, the extra timed set-ups, and — traced — the
// open-loop phase, the traced pass and the layer micro-benchmarks.
func (e *runEnv) benchServed(rep *report, traced bool) error {
	p, err := e.runServed(nil, traced)
	if err != nil {
		return err
	}
	rep.Attempted, rep.Failed = p.attempted, p.failed

	setups := []time.Duration{p.setup}
	for len(setups) < e.w.setups {
		d, err := e.setUpOnly()
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	rep.EndToEnd["setup_s"] = medianDur(setups)
	rep.Samples["setup_s"] = len(setups)
	rep.EndToEnd["peak_rss_mb"] = p.peakRSS

	gets := &p.closed
	if p.readback != nil {
		// The durable ingest plays no GETs; its read latency is that of
		// the post-recovery readback.
		gets = p.readback
	}
	puts := p.closed.lat[clsPut]
	if p.closed.slices == nil || gets.slices == nil || len(gets.lat[clsGet]) == 0 || len(puts) == 0 {
		return fmt.Errorf("workload %s: a measured phase ended early, or played no GETs or no PUTs", e.w.name)
	}
	for i, s := range p.closed.slices {
		secs := e.dur.Seconds() / numSlices
		if i == numSlices-1 {
			secs = p.closed.elapsed.Seconds() - secs*(numSlices-1)
		}
		g := gets.slices[i].lat[clsGet]
		rep.Slices = append(rep.Slices, sliceRow{
			float64(s.ops) / secs, p.sliceCPU[i] * 1e6 / float64(s.ops),
			quantileUS(s.lat[clsPut], 0.50), quantileUS(s.lat[clsPut], 0.99),
			quantileUS(g, 0.50), quantileUS(g, 0.99),
		})
	}
	rep.sliceMedians()
	if e.w.wholePhase {
		ops := float64(p.closed.attempted)
		rep.EndToEnd["throughput_ops_s"] = ops / p.closed.elapsed.Seconds()
		rep.EndToEnd["cpu_us_per_op"] = p.cpu * 1e6 / ops
		rep.EndToEnd["put_p50_us"] = quantileUS(puts, 0.50)
		rep.EndToEnd["put_p99_us"] = quantileUS(puts, 0.99)
	}
	rep.Samples["throughput_ops_s"] = int(p.closed.attempted)
	rep.Samples["put_p50_us"], rep.Samples["put_p99_us"] = len(puts), len(puts)
	rep.Samples["get_p50_us"], rep.Samples["get_p99_us"] = len(gets.lat[clsGet]), len(gets.lat[clsGet])
	if !traced {
		return nil
	}
	return e.servedLayers(rep, p)
}

// benchEmbed runs the embedded workload; its cycles are its slices.
func (e *runEnv) benchEmbed(rep *report, traced bool) error {
	p, err := e.runEmbed(nil)
	if err != nil {
		return err
	}
	rep.Attempted, rep.Failed = p.ops, p.failed
	for _, c := range p.cycles {
		rep.Slices = append(rep.Slices, sliceRow{c.rate, c.cpuPerOp, c.quant[0][0], c.quant[0][1], c.quant[1][0], c.quant[1][1]})
	}
	rep.sliceMedians()
	rep.EndToEnd["setup_s"] = median(p.setups)
	rep.EndToEnd["peak_rss_mb"] = p.peakRSS
	rep.Samples["setup_s"], rep.Samples["throughput_ops_s"] = len(p.setups), int(p.ops)
	rep.Samples["put_p50_us"], rep.Samples["put_p99_us"] = p.samples[0], p.samples[0]
	rep.Samples["get_p50_us"], rep.Samples["get_p99_us"] = p.samples[1], p.samples[1]
	if !traced {
		return nil
	}
	return e.embedLayers(rep, p)
}
