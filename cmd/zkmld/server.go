// Command zkmld is the ZKML-Go proving daemon: it keeps compiled proving
// systems warm in memory and serves proves and verifies over HTTP, so the
// per-request cost is witness synthesis + proving rather than optimizer
// sweep + keygen + SRS extension.
//
// Endpoints:
//
//	GET  /healthz   liveness probe
//	GET  /models    bundled models and their load state
//	GET  /stats     counters, setup-work totals, recent requests
//	POST /prove     {"model","seed","trace","shards"} -> proof + outputs (+ trace)
//	POST /verify    {"model","proof","shards"} -> validity
//
// Concurrency model: proves are CPU-bound and internally parallel (the
// proving engine fans out across cores via internal/parallel), so the
// daemon admits only a bounded number of in-flight proves and answers 429
// with Retry-After when saturated, instead of queueing unboundedly and
// timing everyone out. Traced proves install the process-wide obs kernel
// sinks, so they run exclusively (an RWMutex: untraced proves share the
// read side, a traced prove takes the write side).
package main

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/zkml"
)

type config struct {
	// KeysDir is the artifact store. Loads come from it when populated and
	// compiles fill it; empty disables persistence (compile-only warmup).
	KeysDir string
	// Options are the compile options shared by every served model.
	Options zkml.Options
	// MaxInflight bounds concurrently admitted proves; further requests get
	// 429 + Retry-After.
	MaxInflight int
	// ProveTimeout caps how long a request waits for its prove. The prove
	// itself is not cancellable mid-MSM; on timeout the request gets 504 and
	// the slot is released when the prove eventually finishes.
	ProveTimeout time.Duration
	// RecentRing is how many finished requests /stats keeps.
	RecentRing int
}

func (c config) withDefaults() config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2
	}
	if c.ProveTimeout <= 0 {
		c.ProveTimeout = 10 * time.Minute
	}
	if c.RecentRing <= 0 {
		c.RecentRing = 32
	}
	return c
}

// modelEntry is one cached compiled system. The entry is created under the
// server mutex but loaded inside its own once, so two requests for the same
// model share one load and requests for different models don't serialize.
type modelEntry struct {
	once sync.Once

	sys     *zkml.ShardedSystem
	err     error
	hash    string
	source  string // "store" or "compiled"
	loadDur time.Duration
	setup   pcs.SetupWork // setup work the load performed
}

// requestRecord is one finished request as surfaced by /stats.
type requestRecord struct {
	Kind      string    `json:"kind"` // "prove" or "verify"
	Model     string    `json:"model"`
	Shards    int       `json:"shards,omitempty"`
	Status    int       `json:"status"`
	Millis    float64   `json:"ms"`
	Traced    bool      `json:"traced,omitempty"`
	MSMs      int64     `json:"msms,omitempty"`
	FFTs      int64     `json:"ffts,omitempty"`
	ProveSecs float64   `json:"prove_s,omitempty"`
	Error     string    `json:"error,omitempty"`
	Time      time.Time `json:"time"`
}

type server struct {
	cfg   config
	mux   *http.ServeMux
	start time.Time

	sem     chan struct{}
	traceMu sync.RWMutex

	mu      sync.Mutex
	systems map[string]*modelEntry
	recent  []requestRecord

	proves   atomic.Int64
	verifies atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
	failed   atomic.Int64
	inflight atomic.Int64
}

func newServer(cfg config) *server {
	cfg = cfg.withDefaults()
	s := &server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.MaxInflight),
		systems: make(map[string]*modelEntry),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /models", s.handleModels)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /prove", s.handleProve)
	s.mux.HandleFunc("POST /verify", s.handleVerify)
	return s
}

// maxBodyBytes caps every request body, so one oversized POST cannot make
// the daemon buffer all of it. The largest body a client has reason to send
// is a /verify of a 255-chunk export (the format's chunk limit) of the
// largest bundled proof: resnet-micro on IPA at the default options exports
// 13,718 bytes, so that body's base64 is 4.45 MiB. 8 MiB leaves room for
// wider column budgets and the JSON around the proof.
const maxBodyBytes = 8 << 20

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// bodyStatus is the status for a request body that does not decode: 413 if
// it ran past maxBodyBytes, else 400.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// system returns the compiled system for (model, shards), loading it on
// first use: from the artifact store when possible (deserialize, zero
// keygen), else by compiling once — and filling the store so the next
// daemon start is warm. shards == 0 means 1; every other count is cached
// under its own key ("model@shards"), so the same model served plain and
// sharded coexist warm. The count comes straight from the request, so it is
// checked against the model before a cache slot exists: a rejected value
// leaves nothing behind.
func (s *server) system(name string, shards int) (*modelEntry, error) {
	spec, err := zkml.Model(name)
	if err != nil {
		return nil, err
	}
	if shards == 0 {
		shards = 1
	}
	key := name
	if shards != 1 {
		key = fmt.Sprintf("%s@%d", name, shards)
	}
	s.mu.Lock()
	e, ok := s.systems[key]
	s.mu.Unlock()
	var g *zkml.Graph
	if !ok {
		g = spec.Build()
		if shards < 1 || shards > len(g.Nodes) {
			return nil, fmt.Errorf("shard count %d out of range: %s has %d layers", shards, name, len(g.Nodes))
		}
		s.mu.Lock()
		if e, ok = s.systems[key]; !ok {
			e = &modelEntry{}
			s.systems[key] = e
		}
		s.mu.Unlock()
	}
	e.once.Do(func() {
		start := time.Now()
		before := pcs.SetupWorkSnapshot()
		var fromStore bool
		if g == nil { // a concurrent first request made the slot
			g = spec.Build()
		}
		e.sys, fromStore, e.err = zkml.LoadOrCompile(s.cfg.KeysDir, g, spec.Input(1), shards, s.cfg.Options)
		e.loadDur = time.Since(start)
		e.setup = pcs.SetupWorkSnapshot().Sub(before)
		if e.err != nil {
			return
		}
		e.source = "compiled"
		if fromStore {
			e.source = "store"
		}
		e.hash = fmt.Sprintf("%x", e.sys.ModelCommitment())
	})
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) record(rec requestRecord) {
	rec.Time = time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recent = append(s.recent, rec)
	if len(s.recent) > s.cfg.RecentRing {
		s.recent = s.recent[len(s.recent)-s.cfg.RecentRing:]
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "uptime_s": time.Since(s.start).Seconds()})
}

func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelInfo struct {
		Name    string  `json:"name"`
		Loaded  bool    `json:"loaded"`
		Source  string  `json:"source,omitempty"`
		Hash    string  `json:"hash,omitempty"`
		Desc    string  `json:"desc,omitempty"`
		LoadSec float64 `json:"load_s,omitempty"`
	}
	s.mu.Lock()
	entries := make(map[string]*modelEntry, len(s.systems))
	for name, e := range s.systems {
		entries[name] = e
	}
	s.mu.Unlock()
	out := []modelInfo{}
	for _, name := range zkml.ModelNames() {
		info := modelInfo{Name: name}
		if e, ok := entries[name]; ok && e.sys != nil {
			info.Loaded = true
			info.Source = e.source
			info.Hash = e.hash
			info.Desc = e.sys.Describe()
			info.LoadSec = e.loadDur.Seconds()
		}
		out = append(out, info)
	}
	// Sharded systems are cached under "model@shards" keys; list them after
	// the bundled models, in sorted order for a stable response.
	shardKeys := make([]string, 0, len(entries))
	for key := range entries {
		if strings.Contains(key, "@") {
			shardKeys = append(shardKeys, key)
		}
	}
	sort.Strings(shardKeys)
	for _, key := range shardKeys {
		e := entries[key]
		if e.sys == nil {
			continue
		}
		out = append(out, modelInfo{
			Name: key, Loaded: true, Source: e.source, Hash: e.hash,
			Desc: e.sys.Describe(), LoadSec: e.loadDur.Seconds(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recent := append([]requestRecord(nil), s.recent...)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s": time.Since(s.start).Seconds(),
		"requests": map[string]int64{
			"proves":    s.proves.Load(),
			"verifies":  s.verifies.Load(),
			"rejected":  s.rejected.Load(),
			"timeouts":  s.timeouts.Load(),
			"failed":    s.failed.Load(),
			"in_flight": s.inflight.Load(),
		},
		"setup_work": pcs.SetupWorkSnapshot(),
		"recent":     recent,
	})
}

type proveRequest struct {
	Model string `json:"model"`
	Seed  int64  `json:"seed"`
	Trace bool   `json:"trace"`
	// Shards splits the model into that many chunk circuits proved in
	// parallel, with committed boundary activations linking them; 0 and 1
	// are the single circuit. More than one is incompatible with Trace.
	Shards int `json:"shards,omitempty"`
}

type proveResponse struct {
	Model     string        `json:"model"`
	ModelHash string        `json:"model_hash"`
	Seed      int64         `json:"seed"`
	Shards    int           `json:"shards,omitempty"`
	Proof     string        `json:"proof"` // base64 of ExportProof
	Outputs   []float64     `json:"outputs"`
	ProveSecs float64       `json:"prove_s"`
	Source    string        `json:"source"` // where the keys came from
	SetupWork pcs.SetupWork `json:"setup_work"`
	Trace     *obs.Report   `json:"trace,omitempty"`
}

// proveResult carries a finished prove across the timeout boundary.
type proveResult struct {
	resp   *proveResponse
	rec    requestRecord
	status int
	errMsg string
}

func (s *server) handleProve(w http.ResponseWriter, r *http.Request) {
	var req proveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.failed.Add(1)
		writeErr(w, bodyStatus(err), "bad request body: %v", err)
		return
	}
	if req.Model == "" {
		writeErr(w, http.StatusBadRequest, "missing model")
		return
	}
	// Admission control: CPU-bound proves don't queue, they shed.
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "2")
		writeErr(w, http.StatusTooManyRequests, "prover saturated (%d in flight); retry later", s.cfg.MaxInflight)
		return
	}
	s.proves.Add(1)
	s.inflight.Add(1)
	done := make(chan proveResult, 1)
	go func() {
		defer func() { <-s.sem; s.inflight.Add(-1) }()
		done <- s.prove(req)
	}()
	select {
	case res := <-done:
		s.record(res.rec)
		if res.resp != nil {
			writeJSON(w, res.status, res.resp)
		} else {
			s.failed.Add(1)
			writeErr(w, res.status, "%s", res.errMsg)
		}
	case <-time.After(s.cfg.ProveTimeout):
		s.timeouts.Add(1)
		s.record(requestRecord{Kind: "prove", Model: req.Model, Shards: req.Shards,
			Status: http.StatusGatewayTimeout, Millis: s.cfg.ProveTimeout.Seconds() * 1000,
			Error: "timeout"})
		writeErr(w, http.StatusGatewayTimeout, "prove exceeded %v; the slot frees when it completes", s.cfg.ProveTimeout)
	}
}

// prove runs one admitted prove request end to end.
func (s *server) prove(req proveRequest) proveResult {
	start := time.Now()
	fail := func(status int, format string, args ...any) proveResult {
		msg := fmt.Sprintf(format, args...)
		return proveResult{
			status: status, errMsg: msg,
			rec: requestRecord{Kind: "prove", Model: req.Model, Shards: req.Shards, Status: status,
				Millis: float64(time.Since(start).Microseconds()) / 1000, Error: msg},
		}
	}
	spec, err := zkml.Model(req.Model)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	// The setup-work window covers the whole request, including the system
	// load: a warm request must report zero keygen/SRS work end to end.
	setupBefore := pcs.SetupWorkSnapshot()
	e, err := s.system(req.Model, req.Shards)
	if err != nil {
		return fail(http.StatusBadRequest, "model %q: %v", req.Model, err)
	}
	in := spec.Input(req.Seed)

	var proof *zkml.ShardedProof
	var rep *obs.Report
	proveStart := time.Now()
	if req.Trace {
		// Traced proves own the process-wide kernel sinks exclusively.
		s.traceMu.Lock()
		proof, rep, err = e.sys.ProveTraced(in)
		s.traceMu.Unlock()
	} else {
		// Chunks fan out through the process-wide worker pool, so every
		// untraced prove shares the read side of the lock.
		s.traceMu.RLock()
		proof, err = e.sys.Prove(in)
		s.traceMu.RUnlock()
	}
	proveDur := time.Since(proveStart)
	var data []byte
	if err == nil {
		data, err = e.sys.ExportProof(proof)
	}
	setup := pcs.SetupWorkSnapshot().Sub(setupBefore)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, zkml.ErrTraceSharded) {
			status = http.StatusBadRequest
		}
		return fail(status, "prove: %v", err)
	}
	resp := &proveResponse{
		Model:     req.Model,
		ModelHash: e.hash,
		Seed:      req.Seed,
		Shards:    req.Shards,
		Proof:     base64.StdEncoding.EncodeToString(data),
		Outputs:   e.sys.Outputs(proof),
		ProveSecs: proveDur.Seconds(),
		Source:    e.source,
		SetupWork: setup,
		Trace:     rep,
	}
	rec := requestRecord{Kind: "prove", Model: req.Model, Shards: req.Shards, Status: http.StatusOK,
		Millis: float64(time.Since(start).Microseconds()) / 1000,
		Traced: req.Trace, ProveSecs: proveDur.Seconds()}
	if rep != nil {
		rec.MSMs, rec.FFTs = rep.MSMCount, rep.FFTCount
	}
	return proveResult{resp: resp, rec: rec, status: http.StatusOK}
}

type verifyRequest struct {
	Model string `json:"model"`
	Proof string `json:"proof"` // base64 of ExportProof bytes
	// Shards must be the count the proof was made with.
	Shards int `json:"shards,omitempty"`
}

func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req verifyRequest
	s.verifies.Add(1)
	finish := func(status int, body any, errMsg string) {
		s.record(requestRecord{Kind: "verify", Model: req.Model, Shards: req.Shards, Status: status,
			Millis: float64(time.Since(start).Microseconds()) / 1000, Error: errMsg})
		if errMsg != "" && body == nil {
			s.failed.Add(1)
			writeErr(w, status, "%s", errMsg)
			return
		}
		writeJSON(w, status, body)
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		finish(bodyStatus(err), nil, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Model == "" {
		finish(http.StatusBadRequest, nil, "missing model")
		return
	}
	data, err := base64.StdEncoding.DecodeString(req.Proof)
	if err != nil {
		finish(http.StatusBadRequest, nil, fmt.Sprintf("proof is not valid base64: %v", err))
		return
	}
	e, err := s.system(req.Model, req.Shards)
	if err != nil {
		finish(http.StatusBadRequest, nil, fmt.Sprintf("model %q: %v", req.Model, err))
		return
	}
	proof, err := e.sys.ImportProof(data)
	if err != nil {
		finish(http.StatusBadRequest, nil, fmt.Sprintf("malformed proof: %v", err))
		return
	}
	if err := e.sys.Verify(proof); err != nil {
		finish(http.StatusOK, map[string]any{"valid": false, "reason": err.Error()}, "")
		return
	}
	finish(http.StatusOK, map[string]any{
		"valid": true, "model": req.Model, "model_hash": e.hash,
		"shards": req.Shards, "outputs": e.sys.Outputs(proof),
	}, "")
}
