package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Compare mode reads two files of collected runs (the standard output of
// many runs, concatenated) and applies the rule a later change must meet. A
// run of a workload is paired with the run of the same seed in the other
// file (the k-th at that seed, when a seed was run more than once), and only
// when both were correct, so a failed run leaves a hole and never shifts the
// pairs after it. A gain is claimed only when the change wins at least nine
// tenths of the pairs, ties counting for neither, over at least ten pairs,
// and the medians differ by more than the parent's interquartile spread; a
// metric whose spread on either side exceeds its bound is unresolved; a
// median worse than the parent's by more than the bound is a regression.

// runKey identifies a group of comparable runs.
type runKey struct {
	workload string
	trace    int
}

// pairKey identifies a run within its group: the nth made at a seed.
type pairKey struct {
	seed int64
	nth  int
}

// collected holds one file's correct runs: per group, the keys in the order
// the runs were made and each run's metric values; and the runs left out
// because an operation failed in them.
type collected struct {
	order     map[runKey][]pairKey
	values    map[runKey]map[pairKey]map[string]float64
	incorrect []string
}

func readRuns(path string) (*collected, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := &collected{order: map[runKey][]pairKey{}, values: map[runKey]map[pairKey]map[string]float64{}}
	made := map[runKey]map[int64]int{} // runs seen per seed, failed ones included
	var cur *runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Run     *runRecord             `json:"run"`
			Correct bool                   `json:"correct"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // progress output mixed into the file
		}
		switch {
		case line.Run != nil:
			cur = line.Run
		case line.Metrics != nil && cur != nil:
			key := runKey{cur.Workload, cur.Trace}
			if made[key] == nil {
				made[key] = map[int64]int{}
				out.values[key] = map[pairKey]map[string]float64{}
			}
			pk := pairKey{cur.Seed, made[key][cur.Seed]}
			made[key][cur.Seed]++
			if line.Correct {
				run := map[string]float64{}
				for name, v := range line.Metrics {
					run[name] = v.Value
				}
				out.order[key] = append(out.order[key], pk)
				out.values[key][pk] = run
			} else {
				// A run with a failed operation is no measurement.
				out.incorrect = append(out.incorrect, fmt.Sprintf("%s seed %d", cur.Workload, cur.Seed))
			}
			cur = nil
		}
	}
	return out, sc.Err()
}

// metric returns one metric's values over a group's correct runs, in order.
func (c *collected) metric(key runKey, name string) []float64 {
	var xs []float64
	for _, pk := range c.order[key] {
		if v, ok := c.values[key][pk][name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// paired returns one metric's values over the runs both files have, aligned.
func paired(a, b *collected, key runKey, name string) (xa, xb []float64) {
	for _, pk := range a.order[key] {
		va, okA := a.values[key][pk][name]
		vb, okB := b.values[key][pk][name]
		if okA && okB {
			xa, xb = append(xa, va), append(xb, vb)
		}
	}
	return xa, xb
}

// side summarizes one file's values of one metric.
type side struct {
	n           int
	med, q1, q3 float64
}

func summarize(xs []float64) side {
	s := side{n: len(xs), med: median(xs)}
	if len(xs) >= 2 {
		s.q1, s.q3 = quartiles(xs)
	} else {
		s.q1, s.q3 = s.med, s.med
	}
	return s
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// verdict applies the rule to one workload × metric: the summaries of each
// side's runs, and the paired runs' values.
func verdict(m metricSpec, sa, sb side, pa, pb []float64) string {
	pairs := len(pa)
	wins, losses := 0, 0
	for i := range pairs {
		switch better := m.Better == "higher"; {
		case pa[i] == pb[i]:
		case (pb[i] > pa[i]) == better:
			wins++
		default:
			losses++
		}
	}
	worse := sb.med - sa.med
	if m.Better == "higher" {
		worse = -worse
	}
	bounded := m.Bound > 0
	switch {
	case bounded && (sa.spread() > m.Bound || sb.spread() > m.Bound):
		return "unresolved"
	case bounded && worse > m.Bound*math.Abs(sa.med):
		return "REGRESSION"
	case pairs >= 10 && 10*wins >= 9*pairs && -worse > sa.q3-sa.q1:
		return fmt.Sprintf("gain (%d/%d pairs)", wins, pairs)
	case pairs >= 10 && 10*losses >= 9*pairs && worse > sa.q3-sa.q1:
		return fmt.Sprintf("worse (%d/%d pairs)", losses, pairs)
	default:
		return "no change"
	}
}

func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	for _, side := range []struct {
		label string
		runs  *collected
	}{{"A", a}, {"B", b}} {
		if len(side.runs.incorrect) > 0 {
			fmt.Fprintf(w, "%s: %d runs left out, an operation failed in them: %v\n", side.label, len(side.runs.incorrect), side.runs.incorrect)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbound\tA n\tA median [q1, q3]\tA spread\tB n\tB median [q1, q3]\tB spread\tB/A\tverdict")
	for _, wl := range spec.Workloads {
		for trace, metrics := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			key := runKey{wl.Name, trace}
			for _, m := range metrics {
				xa, xb := a.metric(key, m.Name), b.metric(key, m.Name)
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				sa, sb := summarize(xa), summarize(xb)
				pa, pb := paired(a, b, key, m.Name)
				ratio := "-"
				if sa.med != 0 {
					ratio = fmt.Sprintf("%.4f of %.6g", sb.med/sa.med, sa.med)
				}
				bound := "-"
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.2f", m.Bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%.6g [%.6g, %.6g]\t%.4f\t%d\t%.6g [%.6g, %.6g]\t%.4f\t%s\t%s\n",
					wl.Name, m.Name, m.Unit, bound,
					sa.n, sa.med, sa.q1, sa.q3, sa.spread(),
					sb.n, sb.med, sb.q1, sb.q3, sb.spread(),
					ratio, verdict(m, sa, sb, pa, pb))
			}
		}
	}
	return tw.Flush()
}
