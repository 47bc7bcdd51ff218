package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json lists exactly the per-layer metrics a traced run prints,
// with the same units and directions.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(def.PerLayer), len(layerCatalog))
	}
	for i, m := range def.PerLayer {
		c := layerCatalog[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d] = %+v, catalog has %+v", i, m, c)
		}
	}
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
	} {
		if got := quartiles(c.xs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
}
