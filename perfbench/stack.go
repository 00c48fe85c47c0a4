package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/enum"
	"cdas/internal/httpapi"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/standing"
	"cdas/internal/textgen"
	"cdas/internal/tsa"
)

// stackConfig is what a workload and its inputs choose about the stack
// they boot. The rest is cmd/cdas-server's production configuration.
type stackConfig struct {
	dispatchers int
	// flushEvery is the scheduler's flush timer; zero leaves flushing to
	// the benchmark's wave barrier (closed-loop TSA) or to the standing
	// window coordinator.
	flushEvery time.Duration
	// streams, when positive, makes the window coordinator wait for that
	// many streams at every window close (the closed-loop barrier that
	// keeps stream generations deterministic).
	streams int
	tweets  []textgen.Tweet
	golden  []textgen.Tweet
}

// Stack settings: cmd/cdas-server's defaults, except the verification
// level, which is the one every loadgen profile asks for.
const (
	// stackSeed seeds the simulated crowd and the engine, as the
	// server's default -seed does. It is fixed: the crowd is part of the
	// system under test, and --seed varies only the workload's inputs.
	stackSeed        = 1
	requiredAccuracy = 0.85
	hitSize          = 50
	maxInflight      = 4
	windowDeadline   = 500 * time.Millisecond
)

// stack is one booted CDAS server: simulated crowd → engine → scheduler
// → jobs service on a durable LSM store → dispatchers → v1 HTTP API on
// a loopback port.
type stack struct {
	dir      string
	base     string
	counters *metrics.Registry
	svc      *jobs.Service
	sched    *scheduler.Scheduler
	disp     *jobs.Dispatcher
	web      *http.Server
	closed   bool
}

// bootStack opens a fresh LSM store under dir and starts the stack on
// it. A non-nil tracer wraps the stack's public seams.
func bootStack(dir string, cfg stackConfig, tr *tracer) (*stack, error) {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(stackSeed))
	if err != nil {
		return nil, err
	}
	counters := metrics.NewRegistry()
	svcCfg := jobs.ServiceConfig{Dir: dir, Engine: jobs.EngineLSM, Counters: counters}
	if tr != nil {
		svcCfg.StoreFail = tr.countStoreOp
	}
	svc, err := jobs.OpenService(svcCfg)
	if err != nil {
		return nil, err
	}
	charge := func(job string, amount float64) {
		if err := svc.ChargeBudget(job, amount); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: recording charge for %q: %v\n", job, err)
		}
	}
	var plat engine.Platform = engine.CrowdPlatform{Platform: platform}
	var marks interface {
		enum.MarkStore
		standing.MarkStore
	} = svc
	web := httpapi.NewServer()
	var sink tsa.ResultSink = web
	standingPub, enumPub := web.StandingPublisher(), web.EnumPublisher()
	if tr != nil {
		charge = tr.timeCharge(charge)
		plat = tr.countPlatform(plat)
		marks = tr.timeMarks(svc)
		sink = tr.tsaSink(web)
		standingPub = tr.standingPublisher(standingPub)
		enumPub = tr.enumPublisher(enumPub)
	}
	sched, err := scheduler.New(scheduler.Config{
		Platform: plat,
		Engine: engine.Config{
			RequiredAccuracy: requiredAccuracy,
			HITSize:          hitSize,
			MaxInflightHITs:  maxInflight,
			Seed:             stackSeed,
		},
		Golden:        tsa.GoldenQuestions(cfg.golden),
		FlushInterval: cfg.flushEvery,
		OnCharge:      charge,
		Counters:      counters,
	})
	if err != nil {
		svc.Close()
		return nil, err
	}
	deadline := windowDeadline
	if cfg.streams > 0 {
		deadline = 0
	}
	coord := standing.NewCoordinator(sched, deadline)
	if cfg.streams > 0 {
		coord.Expect(cfg.streams)
	}
	tsaRunner := tsa.NewScheduledJobRunner(tsa.ScheduledRunnerConfig{Scheduler: sched, Stream: cfg.tweets, API: sink})
	standingRunner := standing.NewRunner(standing.RunnerConfig{
		Scheduler: sched, Coord: coord, Marks: marks, Counters: counters, Publish: standingPub,
	})
	enumRunner := enum.NewRunner(enum.RunnerConfig{
		Scheduler: sched, Marks: marks, OnCharge: charge, Counters: counters, Publish: enumPub,
	})
	var runner jobs.Runner = func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
		switch job.Kind {
		case jobs.KindContinuous:
			return standingRunner(ctx, job, report)
		case jobs.KindEnumeration:
			return enumRunner(ctx, job, report)
		}
		return tsaRunner(ctx, job, report)
	}
	if tr != nil {
		runner = tr.timeRunner(runner)
	}
	disp, err := jobs.NewDispatcher(svc, runner, cfg.dispatchers)
	if err != nil {
		sched.Close()
		svc.Close()
		return nil, err
	}
	var ctl httpapi.JobController = disp
	if tr != nil {
		ctl = controller{Dispatcher: disp, tr: tr}
	}
	web.SetJobs(ctl)
	web.SetCounters(counters)
	web.SetScheduler(sched)
	disp.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		disp.Stop()
		sched.Close()
		svc.Close()
		return nil, err
	}
	var h http.Handler = web.Handler()
	if tr != nil {
		h = tr.timeHandler(h)
	}
	hs := httpapi.NewHTTPServer(ln.Addr().String(), h)
	go func() { _ = hs.Serve(ln) }()
	return &stack{
		dir:      dir,
		base:     "http://" + ln.Addr().String(),
		counters: counters,
		svc:      svc,
		sched:    sched,
		disp:     disp,
		web:      hs,
	}, nil
}

// Close stops the stack the way cdas-server shuts down: dispatchers
// first, then the listener, the scheduler and the store.
func (s *stack) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.disp.Stop()
	s.web.Close()
	s.sched.Close()
	return s.svc.Close()
}

// reopenStore opens the store a closed stack wrote, as a restarted
// server would, and returns the recovered service.
func reopenStore(dir string) (*jobs.Service, error) {
	return jobs.OpenService(jobs.ServiceConfig{Dir: dir, Engine: jobs.EngineLSM})
}
