// Command datagen writes the synthetic dataset surrogates to CSV so they
// can be inspected, plotted, or consumed by other tools.
//
// Usage:
//
//	datagen -dataset nslkdd -out out/            # train + test CSVs
//	datagen -dataset coolingfan -out out/        # train + 3 test streams
//	datagen -dataset drifts -out out/            # Figure 1 streams
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"edgedrift/internal/datasets/coolingfan"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/rng"
	"edgedrift/internal/stream"
)

func main() {
	dataset := flag.String("dataset", "nslkdd", "nslkdd | coolingfan | drifts")
	out := flag.String("out", "data", "output directory")
	seed := flag.Uint64("seed", 1, "generator seed")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	var err error
	switch *dataset {
	case "nslkdd":
		err = writeNSLKDD(*out, *seed)
	case "coolingfan":
		err = writeCoolingFan(*out, *seed)
	case "drifts":
		err = writeDrifts(*out, *seed)
	default:
		err = fmt.Errorf("unknown dataset %q", *dataset)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}

// writeCSV writes rows of features with an integer label column in the
// layout stream.ReadCSV parses, reporting write, flush and close errors.
func writeCSV(path string, xs [][]float64, labels []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = stream.WriteCSV(f, &stream.Data{X: xs, Y: labels})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeNSLKDD(dir string, seed uint64) error {
	p := nslkdd.DefaultParams()
	p.Seed = seed
	ds := nslkdd.Generate(p)
	if err := writeCSV(filepath.Join(dir, "nslkdd_train.csv"), ds.TrainX, ds.TrainY); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "nslkdd_test.csv"), ds.TestX, ds.TestY); err != nil {
		return err
	}
	fmt.Printf("wrote nslkdd_train.csv (%d rows) and nslkdd_test.csv (%d rows, drift at %d)\n",
		len(ds.TrainX), len(ds.TestX), ds.DriftAt)
	return nil
}

func writeCoolingFan(dir string, seed uint64) error {
	p := coolingfan.DefaultParams()
	p.Seed = seed
	gen := coolingfan.NewGenerator(p)
	trainX, trainY := gen.TrainingSet(120)
	if err := writeCSV(filepath.Join(dir, "coolingfan_train.csv"), trainX, trainY); err != nil {
		return err
	}
	for _, st := range []*coolingfan.Stream{gen.TestSudden(), gen.TestGradual(), gen.TestReoccurring()} {
		fromNew := make([]int, len(st.X))
		for i, b := range st.FromNew {
			if b {
				fromNew[i] = 1
			}
		}
		name := filepath.Join(dir, "coolingfan_"+st.Name+".csv")
		if err := writeCSV(name, st.X, fromNew); err != nil {
			return err
		}
	}
	fmt.Printf("wrote coolingfan_train.csv and 3 test streams (drift at %d)\n", coolingfan.DriftAt)
	return nil
}

func writeDrifts(dir string, seed uint64) error {
	pre := synth.NewGaussian([][]float64{{0}}, 0.3)
	post := synth.NewGaussian([][]float64{{4}}, 0.3)
	specs := []synth.Spec{
		{Kind: synth.Sudden, Start: 500},
		{Kind: synth.Gradual, Start: 350, End: 650},
		{Kind: synth.Incremental, Start: 350, End: 650},
		{Kind: synth.Reoccurring, Start: 400, End: 600},
	}
	r := rng.New(seed)
	for _, spec := range specs {
		st, err := synth.Generate(pre, post, 1000, spec, r.Split())
		if err != nil {
			return err
		}
		fromNew := make([]int, len(st.X))
		for i, b := range st.FromNew {
			if b {
				fromNew[i] = 1
			}
		}
		name := filepath.Join(dir, "drift_"+spec.Kind.String()+".csv")
		if err := writeCSV(name, st.X, fromNew); err != nil {
			return err
		}
	}
	fmt.Println("wrote 4 drift-type streams (Figure 1)")
	return nil
}
