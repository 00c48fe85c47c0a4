package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"cdas/api"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := buildInputs(w, inputSeed(42, 0))
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildInputs(w, inputSeed(42, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("two builds from one seed differ")
			}
			c, err := buildInputs(w, inputSeed(42, 1))
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.jobs, c.jobs) && reflect.DeepEqual(a.tweets, c.tweets) {
				t.Fatal("two input sets of one seed are identical")
			}
			if len(a.jobs) == 0 || len(a.golden) == 0 {
				t.Fatalf("%d jobs, %d golden questions", len(a.jobs), len(a.golden))
			}
			for _, j := range a.jobs {
				if j.items == 0 || math.Abs(sum(j.truth)-1) > 1e-9 {
					t.Fatalf("job %s: %d items, truth shares sum to %v", j.sub.Name, j.items, sum(j.truth))
				}
			}
		})
	}
}

func TestOpenLoopScheduleKeepsTheRate(t *testing.T) {
	w, _ := findWorkload("open_mixed")
	in, err := buildInputs(w, inputSeed(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	last := in.jobs[len(in.jobs)-1].due
	want := time.Duration(float64(w.tenants) / w.rate * float64(time.Second))
	if d := last - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("last arrival at %v, want %v", last, want)
	}
	for i := 1; i < len(in.jobs); i++ {
		if in.jobs[i].due < in.jobs[i-1].due {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, in.jobs[i].due, i-1, in.jobs[i-1].due)
		}
	}
}

func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func TestTVDistance(t *testing.T) {
	truth := map[string]float64{"Positive": 0.5, "Neutral": 0.3, "Negative": 0.2}
	for _, c := range []struct {
		name     string
		reported map[string]float64
		want     float64
	}{
		{"perfect", truth, 0},
		{"perfect in percent", map[string]float64{"Positive": 50, "Neutral": 30, "Negative": 20, "Abstain01": 0}, 0},
		{"disjoint", map[string]float64{"Other": 1}, 1},
		{"empty", nil, 1},
		{"one label off", map[string]float64{"Positive": 0.6, "Neutral": 0.2, "Negative": 0.2}, 0.1},
	} {
		if got := tvDistance(c.reported, truth); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: tvDistance = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPerfectAnswersScoreZero feeds the scorer, for every job kind, the
// answer the generator's truth says is right.
func TestPerfectAnswersScoreZero(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := buildInputs(w, inputSeed(3, 0))
			if err != nil {
				t.Fatal(err)
			}
			it := &iteration{w: w, in: in, res: &iterResult{}}
			sw := sweepResult{
				jobs:    map[string]api.JobStatus{},
				enums:   map[string]api.EnumStatus{},
				streams: map[string]api.StreamStatus{},
			}
			for i := range in.jobs {
				j := &in.jobs[i]
				r := &jobRec{in: j, ok: true}
				name := j.sub.Name
				switch w.kind {
				case kindTSA:
					sw.jobs[name] = api.JobStatus{Name: name, State: api.JobDone,
						Results: &api.QueryState{Percentages: j.truth, Items: j.items}}
				case kindEnum:
					var items []api.EnumItem
					for k, share := range j.truth {
						// Counts proportional to the true popularity.
						items = append(items, api.EnumItem{Key: k, Text: k, Count: int(math.Round(share * 1e6))})
					}
					sw.enums[name] = api.EnumStatus{Name: name, Items: items, Distinct: len(items)}
				case kindStream:
					sw.streams[name] = api.StreamStatus{Name: name, Seen: int64(j.items), Matched: int64(j.items),
						Results: &api.QueryState{Percentages: j.truth}}
				}
				it.score(r, sw)
			}
			if got := mean(it.res.tvs); got > 1e-5 {
				t.Errorf("answer_err of perfect answers = %v, want 0", got)
			}
			if got := ratio(it.res.recallN, it.res.recallD); got != 1 {
				t.Errorf("recall of perfect answers = %v, want 1", got)
			}
		})
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricsMatchBenchmarkFile checks that the metrics a run prints
// are exactly the ones BENCHMARK.json declares, with valid names and
// the declared units, and that the workloads agree too.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	w, _ := findWorkload("batch_tsa")
	s := summarize(w, []*iterResult{{wall: time.Second}, {wall: time.Second, tr: newTracer()}}, nil)
	seen := map[string]bool{}
	check := func(kind string, printed map[string]metric, name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s metric %q: invalid or duplicate name", kind, name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s metric %q: invalid unit %q", kind, name, unit)
		}
		if m, ok := printed[name]; !ok || m.Unit != unit {
			t.Errorf("%s metric %q: printed as %+v, declared unit %q", kind, name, m, unit)
		}
	}
	for _, m := range bf.EndToEnd {
		check("end-to-end", s.endToEnd, m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %q: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		check("per-layer", s.perLayer, m.Name, m.Unit)
	}
	if len(bf.EndToEnd) != len(s.endToEnd) || len(bf.PerLayer) != len(s.perLayer) {
		t.Errorf("printed %d end-to-end and %d per-layer metrics, BENCHMARK.json declares %d and %d",
			len(s.endToEnd), len(s.perLayer), len(bf.EndToEnd), len(bf.PerLayer))
	}
}
