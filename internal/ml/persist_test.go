package ml

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// trainingSet builds a smooth nonlinear regression problem.
func trainingSet(n, dim int, seed int64) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64()*4 - 2
		}
		t := math.Sin(row[0]) + 0.5*row[dim-1]*row[dim-1] + 0.1*rng.NormFloat64()
		x = append(x, row)
		y = append(y, t)
	}
	return x, y
}

func TestSaveLoadRoundTripPredictions(t *testing.T) {
	x, y := trainingSet(40, 3, 1)
	probes, _ := trainingSet(25, 3, 2)

	models := []Regressor{
		&Linear{},
		&Tree{},
		&GPR{},
		&GPR{LinearVar: -1},
		&SVR{},
	}
	for _, m := range models {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: fit: %v", m.Name(), err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("%s: save: %v", m.Name(), err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", m.Name(), err)
		}
		if loaded.Name() != m.Name() {
			t.Fatalf("%s: loaded name %s", m.Name(), loaded.Name())
		}
		for i, p := range probes {
			want, got := m.Predict(p), loaded.Predict(p)
			if want != got {
				t.Fatalf("%s: probe %d prediction drifted: %v != %v (bit-exact required)",
					m.Name(), i, got, want)
			}
		}
	}
}

func TestSaveRejectsUnfitted(t *testing.T) {
	for _, m := range []Regressor{&Linear{}, &Tree{}, &GPR{}, &SVR{}} {
		var buf bytes.Buffer
		if err := Save(&buf, m); err == nil {
			t.Errorf("%s: saving unfitted model succeeded", m.Name())
		}
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte(`{"version":99,"model":{"kind":"LM"}}`))); err == nil {
		t.Fatal("version 99 accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"version":1,"model":{"kind":"LM"}}`))); err == nil {
		t.Fatal("payload-free state accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Fatal("garbage accepted")
	}
	// FOREST is not a supported family: a saved forest is rejected,
	// alone and as a predictor bank.
	forest := `{"kind":"FOREST","forest":{"dim":3,"members":[],"scales":[]}}`
	if _, err := Load(strings.NewReader(`{"version":1,"model":` + forest + `}`)); err == nil || !strings.Contains(err.Error(), "has no payload") {
		t.Errorf("forest model: err = %v, want a no-payload rejection", err)
	}
	if _, err := LoadMultiOutput(strings.NewReader(`{"version":1,"bank":{"models":[` + forest + `]}}`)); err == nil || !strings.Contains(err.Error(), "unknown model family") {
		t.Errorf("forest bank: err = %v, want an unknown-family rejection", err)
	}
}

func TestMultiOutputRoundTrip(t *testing.T) {
	x, y1 := trainingSet(30, 3, 3)
	_, y2 := trainingSet(30, 3, 4)
	y := make([][]float64, len(x))
	for i := range y {
		y[i] = []float64{y1[i], y2[i]}
	}
	bank := NewMultiOutput(func() Regressor { return &GPR{} })
	if err := bank.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveMultiOutput(&buf, bank); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMultiOutput(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Outputs() != bank.Outputs() {
		t.Fatalf("outputs %d != %d", loaded.Outputs(), bank.Outputs())
	}
	if loaded.Name() != bank.Name() {
		t.Fatalf("name %q != %q", loaded.Name(), bank.Name())
	}
	probes, _ := trainingSet(10, 3, 5)
	for _, p := range probes {
		want, got := bank.Predict(p), loaded.Predict(p)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("output %d drifted: %v != %v", j, got[j], want[j])
			}
		}
	}
	// An unfitted bank refuses to snapshot.
	if _, err := NewMultiOutput(func() Regressor { return &Linear{} }).State(); err == nil {
		t.Fatal("unfitted bank snapshot succeeded")
	}
}
