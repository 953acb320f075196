package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readSpec finds BENCHMARK.json in the working directory or, when run from
// the benchmark's own directory, one level up.
func readSpec() (spec, error) {
	var s spec
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// failedFracBound is how much the share of failed operations may rise, as
// an absolute difference, before a comparison calls it a regression.
const failedFracBound = 0.001

// readSet reads a comma-separated set of -out files and returns, per
// workload and metric, the values of the set in file order.
func readSet(files string) (map[string]map[string][]float64, error) {
	set := make(map[string]map[string][]float64)
	for _, name := range strings.Split(files, ",") {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for wl, res := range rep.Results {
			if set[wl] == nil {
				set[wl] = make(map[string][]float64)
			}
			for m, v := range res.Metrics {
				set[wl][m] = append(set[wl][m], v.Value)
			}
			set[wl]["failed_frac"] = append(set[wl]["failed_frac"], ratio(float64(res.Failed), float64(res.Attempted)))
		}
	}
	return set, nil
}

// spread is the distance between the extremes of a set as a share of its
// median; 0 for a single value.
func spread(v []float64) float64 {
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return ratio(hi-lo, median(v))
}

// compareFiles applies BENCHMARK.json's bounds to two result sets, median
// against median, and prints each workload × end-to-end metric as within,
// regressed, improved or — when either set's own spread exceeds the bound,
// so that the bound cannot tell the sets apart — unresolved. It reports
// whether anything regressed.
func compareFiles(w io.Writer, baseFiles, newFiles string) (regressed bool, err error) {
	s, err := readSpec()
	if err != nil {
		return false, err
	}
	base, err := readSet(baseFiles)
	if err != nil {
		return false, err
	}
	cur, err := readSet(newFiles)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "change", "bound", "verdict")
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			b, c := base[wl.Name][m.Name], cur[wl.Name][m.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bm, cm := median(b), median(c)
			worse := ratio(cm-bm, bm)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within"
			switch {
			case spread(b) > m.Bound || spread(c) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, regressed = "regressed", true
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-15s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", wl.Name, m.Name, bm, cm, 100*ratio(cm-bm, bm), 100*m.Bound, verdict)
		}
		if b, c := base[wl.Name]["failed_frac"], cur[wl.Name]["failed_frac"]; len(b) > 0 && len(c) > 0 {
			verdict := "within"
			if median(c)-median(b) > failedFracBound {
				verdict, regressed = "regressed", true
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6f %14.6f %8s %6s  %s\n", wl.Name, "failed_frac", median(b), median(c), "", "+.001", verdict)
		}
	}
	return regressed, nil
}
