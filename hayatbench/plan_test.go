package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestChipSeedsDeterministicAndDistinct(t *testing.T) {
	a, b := chipSeeds(7, 50), chipSeeds(7, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different chips")
	}
	seen := map[int64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("chip seed %d drawn twice", s)
		}
		seen[s] = true
	}
	if reflect.DeepEqual(a, chipSeeds(8, 50)) {
		t.Fatal("different seeds gave the same chips")
	}
}

// The sweep's hit share is fixed by construction: every repeat names a
// miss its own client finished earlier, and no two misses share a key.
func TestSweepPlanHitShare(t *testing.T) {
	const perClient = 400
	chips := chipSeeds(3, svcChips)
	plan := svcPlan(3, chips, perClient, clients)
	if !reflect.DeepEqual(plan, svcPlan(3, chips, perClient, clients)) {
		t.Fatal("same seed gave different request lists")
	}
	type key struct {
		chip, mix int64
		dark      float64
	}
	keys := map[key]bool{}
	hits := 0
	for c, items := range plan {
		for i, it := range items {
			k := key{it.chip, it.mix, it.dark}
			if it.repeatOf < 0 {
				if keys[k] {
					t.Fatalf("client %d item %d repeats a key without being a planned repeat", c, i)
				}
				keys[k] = true
				continue
			}
			hits++
			if it.repeatOf >= i || items[it.repeatOf].repeatOf >= 0 {
				t.Fatalf("client %d item %d repeats item %d, not an earlier miss", c, i, it.repeatOf)
			}
			if k != (key{items[it.repeatOf].chip, items[it.repeatOf].mix, items[it.repeatOf].dark}) {
				t.Fatalf("client %d item %d differs from the miss it repeats", c, i)
			}
		}
	}
	if got, want := float64(hits)/float64(perClient*clients), 1.0/svcHitEvery; got != want {
		t.Fatalf("hit share %v, want %v", got, want)
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: file %+v, program %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: file %+v, program %+v", i, m, d)
		}
	}
}
