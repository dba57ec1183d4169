package main

import (
	"fmt"
	"runtime"

	"repro/internal/costmodel"
	"repro/zkml"
)

// The fixed conditions every run is taken under and every result file
// records. The circuit options are the ones zkmld defaults to, pinned here
// so the daemon and the in-process workloads compile the same circuits.
const (
	scaleBits  = 6
	lookupBits = 10
	minCols    = 6
	maxCols    = 24
	// maxWorkers caps the proving pool so a result from a large machine is
	// still comparable in shape to the 2-core reference box.
	maxWorkers = 4
)

// workers is the proving-pool size and GOMAXPROCS of every measured process.
func workers() int { return min(runtime.NumCPU(), maxWorkers) }

// workload is one of the benchmark's named sets of inputs. The names are
// what later changes cite, so they do not change.
type workload struct {
	Name string `json:"name"`
	// Why records the reason the workload exists: which layers it stresses
	// and which it leaves alone.
	Why     string       `json:"why"`
	Model   string       `json:"model"`
	Backend zkml.Backend `json:"-"`
	// Serve runs the prover as a zkmld subprocess behind HTTP instead of
	// in-process.
	Serve bool `json:"serve"`
	// Trials is how many fresh processes one run starts: set-up can be
	// observed once per process, so this is also the set-up sample count.
	Trials int `json:"trials"`
	// VerifiesPerProve is how many verify samples follow each timed prove.
	VerifiesPerProve int `json:"verifies_per_prove"`
	// Clients is the number of closed-loop HTTP clients (serve only).
	Clients int `json:"clients,omitempty"`
	// Tolerance is the largest mean absolute difference allowed between a
	// proof's dequantized outputs and the FP32 interpreter's. At 6 scale bits
	// the CNNs stay under 0.006 and the transformer (softmax, layer norm)
	// under 0.16 over 1700 seeds; the limits leave room above that and sit
	// far below the 0.7 a wrong output vector would show.
	Tolerance float64 `json:"tolerance"`
}

var workloads = []workload{
	{
		Name: "mnist-kzg", Model: "mnist", Backend: zkml.KZG, Trials: 2, VerifiesPerProve: 20, Tolerance: 0.02,
		Why: "The repo's historical reference point and the paper's headline backend: fixed-base commits and NTTs do the work, opening almost none.",
	},
	{
		Name: "mnist-ipa", Model: "mnist", Backend: zkml.IPA, Trials: 2, VerifiesPerProve: 10, Tolerance: 0.02,
		Why: "Same circuit and witness as mnist-kzg, so any difference is the pcs/curve backend: opening is variable-base MSMs and verification is linear-time.",
	},
	{
		Name: "vgg-kzg", Model: "vgg-micro", Backend: zkml.KZG, Trials: 2, VerifiesPerProve: 20, Tolerance: 0.02,
		Why: "Largest bundled circuit (2^13 rows, ext-domain NTTs at 2^15, biggest commit tables): where setup_s and peak_rss_mb carry weight.",
	},
	{
		Name: "serve-gpt2-kzg", Model: "gpt2-micro", Backend: zkml.KZG, Serve: true, Trials: 2, VerifiesPerProve: 5, Clients: 2, Tolerance: 0.25,
		Why: "zkmld restarted over a stored artifact with two concurrent HTTP clients: the same layers sharing one pool, plus the only transformer-shaped circuit.",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options are the compile options of a workload. The optimizer is priced
// with the static calibration so the chosen plan (k, advice columns) is the
// same on every run and every machine; the default LoadOrCalibrate path
// re-measures the box and lets layout choice masquerade as prover speed.
func (w workload) options() zkml.Options {
	return zkml.Options{
		Backend:     w.Backend,
		Objective:   zkml.MinTime,
		ScaleBits:   scaleBits,
		LookupBits:  lookupBits,
		MinCols:     minCols,
		MaxCols:     maxCols,
		Calibration: costmodel.StaticCalibration(),
	}
}

// pinProcess applies the fixed parallelism to this process.
func pinProcess() {
	runtime.GOMAXPROCS(workers())
	zkml.SetParallelism(workers())
}

// conditions is the record of the fixed conditions in a result file.
type conditions struct {
	Workers     int    `json:"workers"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	Calibration string `json:"calibration"`
	ScaleBits   int    `json:"scale_bits"`
	LookupBits  int    `json:"lookup_bits"`
	MinCols     int    `json:"min_cols"`
	MaxCols     int    `json:"max_cols"`
	Objective   string `json:"objective"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
}

func currentConditions(seed int64, seconds int) conditions {
	return conditions{
		Workers: workers(), GOMAXPROCS: workers(), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Calibration: "static",
		ScaleBits: scaleBits, LookupBits: lookupBits, MinCols: minCols, MaxCols: maxCols,
		Objective: string(zkml.MinTime), Seed: seed, Seconds: seconds,
	}
}
