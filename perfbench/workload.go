package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cdas/api"
	"cdas/internal/loadgen"
	"cdas/internal/textgen"
)

// Job kinds a workload submits.
const (
	kindTSA    = "tsa"
	kindEnum   = "enum"
	kindStream = "stream"
)

// workload is one traffic mix. Every workload's inputs are a pure
// function of the seed; the stack sees only the generated submissions.
type workload struct {
	name string
	kind string
	// openLoop submits on a Poisson schedule of rate jobs/s instead of
	// in closed-loop waves.
	openLoop bool
	rate     float64

	// TSA sizing: tenants per wave, questions per tenant, the share of
	// each tenant's questions its domain group shares, the number of
	// answer-domain variants, and waves (each re-asks the previous one's
	// questions under new names, so later waves hit the answer cache).
	tenants, questions, domains, waves int
	overlap                            float64

	// Enumeration and stream sizing.
	jobs        int
	universe    int // hidden members per enumeration
	streamItems int // items per stream
	capacity    int // crowd questions per stream window

	dispatchers int
	flushEvery  time.Duration
}

// workloads are the benchmark's traffic mixes, in the order BENCHMARK.json
// lists them; BENCHMARK.json and README.md give each one's reason.
var workloads = []workload{
	{
		name: "batch_tsa",
		kind: kindTSA, tenants: 192, questions: 64, overlap: 0.5, domains: 4, waves: 2,
		// A wave must block in one generation whole.
		dispatchers: 192,
	},
	{
		name: "enum_marks",
		kind: kindEnum, jobs: 384, universe: 30,
		dispatchers: 16,
	},
	{
		name: "open_mixed",
		kind: kindTSA, openLoop: true, rate: 20,
		tenants: 96, questions: 32, domains: 4, waves: 1,
		dispatchers: 2, flushEvery: 50 * time.Millisecond,
	},
	{
		name: "stream_windows",
		kind: kindStream, jobs: 128, streamItems: 240, capacity: 20,
		// Every stream must be live for the window barrier.
		dispatchers: 128,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jobInput is one generated submission plus the ground truth the
// generator knows about it.
type jobInput struct {
	sub  api.JobSubmission
	wave int
	// due is the submission's offset from the start of the schedule
	// (open loop only).
	due time.Duration
	// items is the number of questions the job asks (TSA), the hidden
	// set's size (enumeration) or the stream's length.
	items int
	// truth holds the true shares the job's answer should report: label
	// shares of its questions (TSA, streams) or member popularity
	// shares of its hidden set (enumeration).
	truth map[string]float64
}

// inputs is a workload materialised from one seed.
type inputs struct {
	jobs   []jobInput
	waves  int
	tweets []textgen.Tweet
	golden []textgen.Tweet
}

// workloadStart bounds every generated query's time filter.
var workloadStart = time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)

// buildInputs materialises the workload from the seed.
func buildInputs(w workload, seed uint64) (*inputs, error) {
	var in *inputs
	var err error
	switch w.kind {
	case kindTSA:
		in, err = buildTSA(w, seed)
	case kindEnum:
		in = buildEnum(w, seed)
	case kindStream:
		in, err = buildStreams(w, seed)
	default:
		err = fmt.Errorf("perfbench: unknown workload kind %q", w.kind)
	}
	if err != nil {
		return nil, err
	}
	// The golden pool the scheduler samples worker accuracy from is the
	// operator's calibration data, part of the stack's configuration like
	// the crowd it calibrates: cdas-server derives it from its own seed.
	in.golden, err = textgen.Generate(textgen.Config{
		Seed:           stackSeed + 2,
		Movies:         []string{"CALIB000"},
		TweetsPerMovie: 32,
		Start:          workloadStart,
		Span:           24 * time.Hour,
	})
	return in, err
}

func buildTSA(w workload, seed uint64) (*inputs, error) {
	p := loadgen.Profile{
		Name:               w.name,
		Seed:               seed,
		Tenants:            w.tenants,
		QuestionsPerTenant: w.questions,
		Overlap:            w.overlap,
		Domains:            w.domains,
		Rounds:             w.waves,
		RequiredAccuracy:   requiredAccuracy,
	}
	if w.openLoop {
		p.ArrivalMean = time.Duration(float64(time.Second) / w.rate)
	}
	lw, err := loadgen.BuildWorkload(p)
	if err != nil {
		return nil, err
	}
	byMovie := make(map[string][]string)
	for _, t := range lw.Stream {
		byMovie[t.Movie] = append(byMovie[t.Movie], t.Truth)
	}
	in := &inputs{waves: w.waves, tweets: lw.Stream}
	// Stretch the Poisson schedule so the last arrival lands exactly at
	// tenants/rate: every seed then offers the same mean rate, and only
	// the gaps between arrivals vary.
	stretch := 0.0
	if last := lw.Tenants[len(lw.Tenants)-1].ArrivalOffset; w.openLoop && last > 0 {
		stretch = float64(w.tenants) / w.rate * float64(time.Second) / float64(last)
	}
	for wave := 0; wave < w.waves; wave++ {
		for _, t := range lw.Tenants {
			var labels []string
			for _, kw := range t.Keywords {
				labels = append(labels, byMovie[kw]...)
			}
			in.jobs = append(in.jobs, jobInput{
				sub:   lw.Submission(t, wave),
				wave:  wave,
				due:   time.Duration(stretch * float64(t.ArrivalOffset)),
				items: len(labels),
				truth: shares(labels),
			})
		}
	}
	return in, nil
}

// sourceSeed derives job i's simulated-crowd seed from the run seed.
func sourceSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i) }

func buildEnum(w workload, seed uint64) *inputs {
	in := &inputs{waves: 1}
	for i := 0; i < w.jobs; i++ {
		kw := fmt.Sprintf("EN%03dSET", i)
		// The simulated crowd draws member k with weight 1/(k+1).
		truth := make(map[string]float64, w.universe)
		var sum float64
		for k := 0; k < w.universe; k++ {
			sum += 1 / float64(k+1)
		}
		for k := 0; k < w.universe; k++ {
			truth[memberKey(fmt.Sprintf("%s item %03d", kw, k+1))] = 1 / float64(k+1) / sum
		}
		in.jobs = append(in.jobs, jobInput{
			sub: api.JobSubmission{
				Name:     fmt.Sprintf("e%03d", i),
				Kind:     api.KindEnumeration,
				Keywords: []string{kw},
				Enum: &api.EnumSpec{
					ItemValue:  0.05,
					Universe:   w.universe,
					SourceSeed: sourceSeed(seed, i),
				},
			},
			items: w.universe,
			truth: truth,
		})
	}
	return in
}

// memberKey folds the spelling variants the simulated crowd emits
// (case, repeated and surrounding whitespace) onto one key.
func memberKey(text string) string { return strings.Join(strings.Fields(strings.ToLower(text)), " ") }

func buildStreams(w workload, seed uint64) (*inputs, error) {
	in := &inputs{waves: 1}
	for i := 0; i < w.jobs; i++ {
		kw := fmt.Sprintf("SM%03dMOV", i)
		src := sourceSeed(seed, i)
		// The server's built-in source generates exactly this stream
		// (one keyword, so no interleaving), then times its arrivals.
		tweets, err := textgen.Generate(textgen.Config{
			Seed:           src,
			Movies:         []string{kw},
			TweetsPerMovie: w.streamItems,
			Start:          workloadStart,
		})
		if err != nil {
			return nil, err
		}
		labels := make([]string, len(tweets))
		for k, t := range tweets {
			labels[k] = t.Truth
		}
		in.jobs = append(in.jobs, jobInput{
			sub: api.JobSubmission{
				Name:             fmt.Sprintf("s%03d", i),
				Kind:             api.KindContinuous,
				Keywords:         []string{kw},
				RequiredAccuracy: requiredAccuracy,
				Domain:           append([]string(nil), textgen.Labels...),
				Start:            workloadStart.Format(time.RFC3339),
				Window:           time.Minute.String(),
				Stream: &api.StreamSpec{
					WindowCapacity: w.capacity,
					Items:          w.streamItems,
					Rate:           0.5,
					SourceSeed:     src,
				},
			},
			items: len(labels),
			truth: shares(labels),
		})
	}
	return in, nil
}

// shares turns a list of labels into each label's share of the list.
func shares(labels []string) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range labels {
		out[l]++
	}
	for l := range out {
		out[l] /= float64(len(labels))
	}
	return out
}

// tvDistance is the total-variation distance between two share maps,
// each normalised to sum to one: 0 for identical distributions, 1 for
// disjoint ones. An empty report is maximally wrong.
func tvDistance(reported, truth map[string]float64) float64 {
	var rs, ts float64
	for _, v := range reported {
		rs += v
	}
	for _, v := range truth {
		ts += v
	}
	if rs <= 0 || ts <= 0 {
		return 1
	}
	var d float64
	for k, v := range reported {
		d += math.Abs(v/rs - truth[k]/ts)
	}
	for k, v := range truth {
		if _, ok := reported[k]; !ok {
			d += v / ts
		}
	}
	return d / 2
}
