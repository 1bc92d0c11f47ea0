package main

import (
	"time"

	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/trace"
)

// timedPolicy forwards every kernel.Policy call to inner and times it.
type timedPolicy struct {
	inner       kernel.Policy
	decideCalls int64
	accepts     int64 // decisions that launched a kernel or a CTA group
	hookCalls   int64
	decide      time.Duration
	hook        time.Duration
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(site *kernel.LaunchSite) kernel.Decision {
	start := time.Now()
	d := p.inner.Decide(site)
	p.decide += time.Since(start)
	p.decideCalls++
	if d.Action == kernel.LaunchKernel || d.Action == kernel.LaunchCTAs {
		p.accepts++
	}
	return d
}

func (p *timedPolicy) OnChildQueued(now kernel.Cycle, ctas int) {
	start := time.Now()
	p.inner.OnChildQueued(now, ctas)
	p.hooked(start)
}

func (p *timedPolicy) OnChildCTAStart(now kernel.Cycle) {
	start := time.Now()
	p.inner.OnChildCTAStart(now)
	p.hooked(start)
}

func (p *timedPolicy) OnChildCTAFinish(now, start kernel.Cycle, warps int) {
	t := time.Now()
	p.inner.OnChildCTAFinish(now, start, warps)
	p.hooked(t)
}

func (p *timedPolicy) OnChildWarpFinish(now, start kernel.Cycle) {
	t := time.Now()
	p.inner.OnChildWarpFinish(now, start)
	p.hooked(t)
}

func (p *timedPolicy) hooked(start time.Time) {
	p.hook += time.Since(start)
	p.hookCalls++
}

// timedSink forwards every event to inner and times the Record calls.
type timedSink struct {
	inner  trace.Sink
	events int64
	record time.Duration
}

func (s *timedSink) Record(e trace.Event) {
	start := time.Now()
	s.inner.Record(e)
	s.record += time.Since(start)
	s.events++
}

func (s *timedSink) Close() error { return s.inner.Close() }
