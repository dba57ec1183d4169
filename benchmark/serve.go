package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/zkml"
)

// serveFixture is what the serve workload needs before any daemon starts,
// none of it timed: the zkmld binary built from this checkout, an artifact
// store holding the compiled model, and the pinned calibration on disk.
type serveFixture struct {
	Bin, Store, Calibration string
	K, AdviceCols           int
}

// buildServeFixture compiles the model in this process and saves it with
// System.Save, so each daemon start is a restart over a populated store.
func buildServeFixture(w workload, scratch string) (*serveFixture, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	f := &serveFixture{
		Bin:         filepath.Join(scratch, "zkmld"),
		Store:       filepath.Join(scratch, "store"),
		Calibration: filepath.Join(scratch, "calibration.json"),
	}
	build := exec.Command("go", "build", "-o", f.Bin, "./cmd/zkmld")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("benchmark: building zkmld: %w\n%s", err, out)
	}
	opts := w.options()
	if err := opts.Calibration.Save(f.Calibration); err != nil {
		return nil, err
	}
	pinProcess()
	spec, err := zkml.Model(w.Model)
	if err != nil {
		return nil, err
	}
	sys, err := zkml.Compile(spec.Build(), spec.Input(goldenSeed), opts)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", w.Model, err)
	}
	if _, err := sys.Save(f.Store); err != nil {
		return nil, err
	}
	f.K, f.AdviceCols = sys.Plan.K, sys.Plan.Config.NumCols
	return f, nil
}

// daemon is one running zkmld.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon starts zkmld over the fixture store and returns once it
// answers /healthz, which it does only after the preload has finished.
func startDaemon(w workload, f *serveFixture) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.Bin,
		"-addr", addr, "-keys", f.Store, "-preload", w.Model, "-max-inflight", strconv.Itoa(w.Clients),
		"-backend", "kzg", "-scale-bits", strconv.Itoa(scaleBits), "-lookup-bits", strconv.Itoa(lookupBits),
		"-max-cols", strconv.Itoa(maxCols))
	cmd.Env = childEnv("ZKML_CALIBRATION=" + f.Calibration)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("benchmark: zkmld did not answer /healthz within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the daemon and waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // already exited is fine
	_ = d.cmd.Wait()         // the kill makes Wait report an error by design
}

// post sends one JSON request and decodes the JSON reply, returning the
// status code and the round-trip time.
func (d *daemon) post(path string, req, reply any) (int, float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := http.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return resp.StatusCode, elapsed, err
	}
	if err := json.Unmarshal(data, reply); err != nil {
		return resp.StatusCode, elapsed, fmt.Errorf("decoding %s reply: %w", path, err)
	}
	return resp.StatusCode, elapsed, nil
}

// proveReply and verifyReply are the parts of zkmld's replies the harness
// reads.
type proveReply struct {
	Proof     string        `json:"proof"`
	Outputs   []float64     `json:"outputs"`
	ProveSecs float64       `json:"prove_s"`
	Source    string        `json:"source"`
	SetupWork pcs.SetupWork `json:"setup_work"`
	Trace     *obs.Report   `json:"trace"`
	Error     string        `json:"error"`
}

type verifyReply struct {
	Valid bool   `json:"valid"`
	Error string `json:"error"`
}

type statsReply struct {
	Requests  map[string]int64 `json:"requests"`
	SetupWork pcs.SetupWork    `json:"setup_work"`
}

// prove is one POST /prove. Anything but a 200 with a decodable proof is an
// error; the round-trip time is what a user of the daemon sees.
func (d *daemon) prove(model string, seed int64, trace bool) (*proveReply, []byte, float64, error) {
	var reply proveReply
	status, elapsed, err := d.post("/prove", map[string]any{"model": model, "seed": seed, "trace": trace}, &reply)
	if err != nil {
		return nil, nil, elapsed, err
	}
	if status != http.StatusOK {
		return nil, nil, elapsed, fmt.Errorf("HTTP %d: %s", status, reply.Error)
	}
	proof, err := base64.StdEncoding.DecodeString(reply.Proof)
	if err != nil {
		return nil, nil, elapsed, err
	}
	return &reply, proof, elapsed, nil
}

// verify is one POST /verify of proof bytes, returning the verdict.
func (d *daemon) verify(model string, proof []byte) (valid bool, status int, elapsed float64, err error) {
	var reply verifyReply
	status, elapsed, err = d.post("/verify", map[string]any{"model": model, "proof": base64.StdEncoding.EncodeToString(proof)}, &reply)
	return reply.Valid, status, elapsed, err
}

// serveTrial is one trial of the serve workload: a daemon restarted over
// the store, its first prove, the correctness checks, then closed-loop
// clients each looping POST /prove, POST /verify until the budget is spent.
func serveTrial(w workload, f *serveFixture, seed int64, budget time.Duration) (*trialResult, error) {
	spec, err := zkml.Model(w.Model)
	if err != nil {
		return nil, err
	}
	g := spec.Build()
	res := &trialResult{K: f.K, AdviceCols: f.AdviceCols}

	setupStart := time.Now()
	d, err := startDaemon(w, f)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	first, data, _, err := d.prove(w.Model, goldenSeed, false)
	if err != nil {
		return nil, fmt.Errorf("first /prove: %w", err)
	}
	res.SetupS = time.Since(setupStart).Seconds()
	if res.PeakRSSMB, err = peakRSSMB(d.cmd.Process.Pid); err != nil {
		return nil, err
	}

	res.ProofBytes, res.Outputs = len(data), first.Outputs
	res.op(failIf(first.Source != "store", "keys came from %q", first.Source), "daemon restart from the store")
	res.op(checkAgainstFloat(g, spec.Input(goldenSeed), first.Outputs, w.Tolerance), "FP32 cross-check of the first proof")
	res.op(d.rejects(w.Model, flipByte(data)), "proof with one byte flipped")

	var before statsReply
	if err := d.get("/stats", &before); err != nil {
		return nil, err
	}
	cpuBefore := readCPUTimes()
	timedStart := time.Now()
	var mu sync.Mutex // guards res while the clients run
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int64(1); ; i++ {
				s := seed + int64(c)*1000 + i
				reply, data, elapsed, err := d.prove(w.Model, s, false)
				var floatErr error
				if err == nil { // the reference runs outside the lock
					floatErr = checkAgainstFloat(g, spec.Input(s), reply.Outputs, w.Tolerance)
				}
				mu.Lock()
				ok := res.op(err, "POST /prove seed %d", s)
				if ok {
					res.ProveS = append(res.ProveS, elapsed)
					res.op(failIf(len(data) != res.ProofBytes, "%d bytes, first proof had %d", len(data), res.ProofBytes), "proof size of seed %d", s)
					res.op(floatErr, "FP32 cross-check of seed %d", s)
				}
				mu.Unlock()
				for v := 0; ok && v < w.VerifiesPerProve; v++ {
					valid, status, elapsed, err := d.verify(w.Model, data)
					if err == nil && (status != http.StatusOK || !valid) {
						err = fmt.Errorf("HTTP %d, valid=%v", status, valid)
					}
					mu.Lock()
					if res.op(err, "POST /verify seed %d", s) {
						res.VerifyS = append(res.VerifyS, elapsed)
					}
					mu.Unlock()
				}
				if time.Since(timedStart) >= budget {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res.Steal = stealShare(cpuBefore, readCPUTimes())

	var after statsReply
	if err := d.get("/stats", &after); err != nil {
		return nil, err
	}
	res.TimedSetupWork = after.SetupWork.Sub(before.SetupWork)
	res.op(noTableBuilds(res.TimedSetupWork), "commit tables during warm proves")
	rejected, timeouts := after.Requests["rejected"], after.Requests["timeouts"]
	res.op(failIf(rejected+timeouts != 0, "%d rejected with 429, %d timed out with 504", rejected, timeouts), "daemon admission")
	if res.PeakRSSEndMB, err = peakRSSMB(d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	return res, nil
}

// rejects returns an error unless the daemon refuses the proof, either as
// malformed (400) or as well-formed but invalid (200, valid=false).
func (d *daemon) rejects(model string, proof []byte) error {
	valid, status, _, err := d.verify(model, proof)
	switch {
	case err != nil:
		return err
	case status == http.StatusBadRequest, status == http.StatusOK && !valid:
		return nil
	}
	return fmt.Errorf("daemon answered HTTP %d, valid=%v", status, valid)
}

// get fetches a JSON endpoint.
func (d *daemon) get(path string, reply any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}
