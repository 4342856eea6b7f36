// Quickstart: generate a 5G CA measurement dataset, train Prism5G and a
// baseline, and compare their throughput-prediction error.
//
// Run with:
//
//	go run ./examples/quickstart
//
// -quick shrinks the dataset and the training budget to a few seconds for
// CI smoke runs; the defaults match the demo in the README.
package main

import (
	"flag"
	"fmt"
	"log"

	"prism5g"
)

func main() {
	quick := flag.Bool("quick", false, "CI-sized run: tiny dataset, few epochs")
	flag.Parse()

	// 1. Generate one of the paper's sub-datasets: OpZ (the FR1-CA-heavy
	// operator), driving, 1 s granularity. Everything is simulated — no
	// carrier network needed — and deterministic given the seed.
	fmt.Println("generating the OpZ driving dataset ...")
	var ds *prism5g.Dataset
	cfg := prism5g.ModelConfig{Hidden: 16, Epochs: 20, Seed: 1}
	if *quick {
		ds = prism5g.GenerateDatasetSized(prism5g.OpZ, prism5g.Driving, prism5g.Long, 42, 3, 60)
		cfg = prism5g.ModelConfig{Hidden: 6, Epochs: 3, Seed: 1}
	} else {
		ds = prism5g.GenerateDataset(prism5g.OpZ, prism5g.Driving, prism5g.Long, 42)
	}
	fmt.Printf("dataset %s: %d traces, %d samples\n", ds.Name, len(ds.Traces), ds.NumSamples())

	// 2. Prepare sliding windows and the train/val/test split (0.5/0.2/0.3).
	bundle := prism5g.Prepare(ds, 1)
	fmt.Printf("windows: %d train / %d val / %d test\n",
		len(bundle.Train), len(bundle.Val), len(bundle.Test))
	if len(bundle.Test) == 0 {
		log.Fatal("no test windows; the dataset is too small")
	}

	// 3. Train Prism5G and an LSTM baseline. A small budget is enough for
	// the demo; see cmd/prismeval for the full evaluation.
	prism := prism5g.NewPrism5G(bundle, cfg)
	lstm, err := prism5g.NewBaselineE("LSTM", bundle, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training LSTM ...")
	lstm.Train(bundle.Train, bundle.Val)
	fmt.Println("training Prism5G ...")
	prism.Train(bundle.Train, bundle.Val)

	// 4. Compare on held-out windows.
	lstmRMSE := prism5g.EvaluateRMSE(lstm, bundle.Test)
	prismRMSE := prism5g.EvaluateRMSE(prism, bundle.Test)
	fmt.Printf("\ntest RMSE (scaled): LSTM %.4f, Prism5G %.4f\n", lstmRMSE, prismRMSE)
	if prismRMSE < lstmRMSE {
		fmt.Printf("Prism5G reduces RMSE by %.1f%% — CA-awareness pays off.\n",
			100*(1-prismRMSE/lstmRMSE))
	} else {
		fmt.Println("try more epochs: the demo budget is intentionally tiny.")
	}

	// 5. Inspect one prediction in physical units.
	w := bundle.Test[0]
	pred := prism.Predict(w)
	fmt.Println("\nsample forecast (Mbps):")
	for h := 0; h < 3; h++ {
		fmt.Printf("  t+%d s: predicted %6.0f, actual %6.0f\n",
			h+1, bundle.Scaler.InvertTput(pred[h]), bundle.Scaler.InvertTput(w.Y()[h]))
	}
}
