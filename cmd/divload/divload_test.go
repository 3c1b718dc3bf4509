package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload in both modes for half a second on the
// held-out seed, with arguments spelled as in "--trace 0", and checks
// that each result line carries exactly the metrics BENCHMARK.json lists,
// with their units (values are finite, or the line would not encode), that
// some workload measures each of them, and that no operation failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var bench struct {
		EndToEnd []listed `json:"end_to_end"`
		PerLayer []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		trace string
		want  []listed
	}{{"0", bench.EndToEnd}, {"1", bench.PerLayer}} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--seed", "2", "--seconds", "0.5", "--trace", mode.trace}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", mode.trace, code, out.String(), errOut.String())
		}
		results, failedFrac := 0, 0
		measured := make(map[string]bool) // names on the workloads' text lines
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			line := sc.Text()
			f := strings.Fields(line)
			if len(f) >= 3 && strings.HasPrefix(line, "  ") {
				measured[f[0]] = true
			}
			if len(f) >= 3 && f[0] == "failed_frac" {
				failedFrac++
				if v, err := strconv.ParseFloat(f[1], 64); err != nil || v != 0 {
					t.Errorf("trace %s: %s", mode.trace, line)
				}
			}
			if !strings.HasPrefix(line, "{") {
				continue
			}
			results++
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("trace %s: %v in %s", mode.trace, err, line)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace %s: correct=%v attempted=%d failed=%d", mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, w := range mode.want {
				got, ok := res.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("trace %s: %s not printed", mode.trace, w.Name)
				case got.Unit != w.Unit:
					t.Errorf("trace %s: %s in %q, BENCHMARK.json says %q", mode.trace, w.Name, got.Unit, w.Unit)
				}
			}
		}
		for _, w := range mode.want {
			if !measured[w.Name] {
				t.Errorf("trace %s: no workload measures %s", mode.trace, w.Name)
			}
		}
		if results != len(workloads) || failedFrac != len(workloads) {
			t.Errorf("trace %s: %d result lines and %d failed_frac lines for %d workloads\n%s",
				mode.trace, results, failedFrac, len(workloads), out.String())
		}
	}
}
