// Quickstart: compile a bundled model into a ZK-SNARK circuit, prove one
// inference, and verify the proof.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/zkml"
)

func main() {
	// Pick the MNIST CNN (the smallest bundled model).
	spec, err := zkml.Model("mnist")
	if err != nil {
		log.Fatal(err)
	}

	// Compile: the optimizer searches circuit layouts (column counts,
	// gadget implementations) priced by the cost model — its static unit
	// costs here, or a fitted calibration file from `zkml calibrate` via
	// Options.CalibrationPath — then generates the model-specific proving
	// and verification keys. The sample input only drives layout simulation.
	start := time.Now()
	sys, err := zkml.Compile(spec.Build(), spec.Input(1), zkml.Options{
		ScaleBits:  6,
		LookupBits: 10,
		MaxCols:    20,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled in %v\n  %s\n", time.Since(start).Round(time.Millisecond), sys.Describe())

	// Prove an inference on a fresh input. The proof shows the committed
	// model produced these outputs without revealing weights or input.
	start = time.Now()
	proof, err := sys.Prove(spec.Input(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proved in %v (proof: %d bytes)\n",
		time.Since(start).Round(time.Millisecond), proof.Proof.Size())

	// Verify.
	start = time.Now()
	if err := sys.Verify(proof); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Printf("verified in %v\n", time.Since(start).Round(time.Microsecond))

	// The public outputs are the model's class probabilities.
	outs := sys.Outputs(proof)
	fmt.Println("class probabilities:")
	for i, p := range outs {
		fmt.Printf("  class %d: %.4f\n", i, p)
	}
}
