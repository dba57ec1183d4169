package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/zkml"
)

var testCalib = costmodel.Calibrate(8, 10)

func testConfig(keysDir string) config {
	return config{
		KeysDir: keysDir,
		Options: zkml.Options{ScaleBits: 6, LookupBits: 10, MaxCols: 20,
			Calibration: testCalib},
		MaxInflight: 2,
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string) map[string]json.RawMessage {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func unmarshalField[T any](t *testing.T, m map[string]json.RawMessage, key string) T {
	t.Helper()
	var v T
	raw, ok := m[key]
	if !ok {
		t.Fatalf("response missing %q field", key)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("field %q: %v", key, err)
	}
	return v
}

// setupIsZero reports whether a JSON-decoded setup_work block records no
// setup work. Commit-table hits are excluded: a hit is the amortized
// fast path commitments take once a table exists, not setup work
// (matching pcs.SetupWork.IsZero).
func setupIsZero(m map[string]int64) bool {
	for k, v := range m {
		if k == "commit_table_hits" {
			continue
		}
		if v != 0 {
			return false
		}
	}
	return true
}

// TestDaemonSmoke is the CI entry behind `make daemon-smoke`: bring up the
// daemon, prove and verify over HTTP, and pin the warm-path guarantees —
// a warm prove does zero keygen/SRS work and is far faster than the cold
// one, a daemon restarted over a populated key store does no keygen at all,
// and /stats surfaces the per-request trace.
func TestDaemonSmoke(t *testing.T) {
	keysDir := t.TempDir()
	ts := httptest.NewServer(newServer(testConfig(keysDir)))
	defer ts.Close()

	if status := getJSON(t, ts, "/healthz"); unmarshalField[string](t, status, "status") != "ok" {
		t.Fatal("healthz not ok")
	}

	// Cold prove: compiles + keygens inside the request, so it reports
	// setup work and takes its time.
	coldStart := time.Now()
	resp, body := postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Seed: 7})
	coldDur := time.Since(coldStart)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold prove: status %d: %s", resp.StatusCode, body["error"])
	}
	if setupIsZero(unmarshalField[map[string]int64](t, body, "setup_work")) {
		t.Fatal("cold prove reported zero setup work; the assertion below would be vacuous")
	}
	if unmarshalField[string](t, body, "source") != "compiled" {
		t.Fatalf("cold prove source %s, want compiled", body["source"])
	}
	proofB64 := unmarshalField[string](t, body, "proof")
	// Setup overhead = request latency minus the proving itself. The cold
	// request pays the optimizer sweep + keygen here; a warm request must
	// not.
	coldOverhead := coldDur - time.Duration(unmarshalField[float64](t, body, "prove_s")*float64(time.Second))

	// Warm traced prove: same model, cached system — zero setup work, and
	// much faster than the cold request that had to compile.
	warmStart := time.Now()
	resp, body = postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Seed: 8, Trace: true})
	warmDur := time.Since(warmStart)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm prove: status %d: %s", resp.StatusCode, body["error"])
	}
	warmWork := unmarshalField[map[string]int64](t, body, "setup_work")
	if !setupIsZero(warmWork) {
		t.Fatalf("warm prove did setup work: %s", body["setup_work"])
	}
	if warmWork["commit_table_hits"] == 0 {
		t.Fatal("warm prove was not served by the fixed-base commitment tables")
	}
	warmOverhead := warmDur - time.Duration(unmarshalField[float64](t, body, "prove_s")*float64(time.Second))
	if warmOverhead > coldOverhead/2 {
		t.Fatalf("warm prove setup overhead (%v) not meaningfully below cold (%v)", warmOverhead, coldOverhead)
	}
	trace := unmarshalField[map[string]json.RawMessage](t, body, "trace")
	if len(trace) == 0 {
		t.Fatal("traced prove returned no trace report")
	}

	// The traced request surfaces in /stats with its kernel counters.
	stats := getJSON(t, ts, "/stats")
	recent := unmarshalField[[]requestRecord](t, stats, "recent")
	var traced *requestRecord
	for i := range recent {
		if recent[i].Traced {
			traced = &recent[i]
		}
	}
	if traced == nil {
		t.Fatal("/stats has no traced request record")
	}
	if traced.MSMs == 0 || traced.FFTs == 0 {
		t.Fatalf("traced record carries no kernel counts: %+v", traced)
	}

	// Round-trip the proof through /verify; a tampered copy must fail.
	resp, body = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro", Proof: proofB64})
	if resp.StatusCode != http.StatusOK || !unmarshalField[bool](t, body, "valid") {
		t.Fatalf("verify rejected a fresh proof: %d %s", resp.StatusCode, body["error"])
	}
	raw, err := base64.StdEncoding.DecodeString(proofB64)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), raw...)
	tampered[5] ^= 1 // first instance value
	resp, body = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro",
		Proof: base64.StdEncoding.EncodeToString(tampered)})
	if resp.StatusCode != http.StatusOK || unmarshalField[bool](t, body, "valid") {
		t.Fatal("verify accepted a tampered proof")
	}
	resp, _ = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro",
		Proof: base64.StdEncoding.EncodeToString(raw[:10])})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated proof: status %d, want 400", resp.StatusCode)
	}

	// /models shows the loaded entry.
	models := getJSON(t, ts, "/models")
	type modelInfo struct {
		Name   string `json:"name"`
		Loaded bool   `json:"loaded"`
		Source string `json:"source"`
	}
	var found bool
	for _, m := range unmarshalField[[]modelInfo](t, models, "models") {
		if m.Name == "dlrm-micro" && m.Loaded {
			found = true
		}
	}
	if !found {
		t.Fatal("/models does not list dlrm-micro as loaded")
	}

	// The same model as a chain of two chunk circuits, through the same
	// handlers: cold compile, verify, and a record in /stats that tells the
	// sharded request from the plain ones.
	resp, body = postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Seed: 7, Shards: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded prove: status %d: %s", resp.StatusCode, body["error"])
	}
	if unmarshalField[string](t, body, "source") != "compiled" {
		t.Fatalf("sharded cold prove source %s, want compiled", body["source"])
	}
	shardedB64 := unmarshalField[string](t, body, "proof")
	shardedOutputs := unmarshalField[[]float64](t, body, "outputs")
	resp, body = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro", Proof: shardedB64, Shards: 2})
	if resp.StatusCode != http.StatusOK || !unmarshalField[bool](t, body, "valid") {
		t.Fatalf("verify rejected a fresh sharded proof: %d %s", resp.StatusCode, body["error"])
	}
	// A sharded proof is not a proof for the plain system.
	resp, body = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro", Proof: shardedB64})
	if resp.StatusCode == http.StatusOK && unmarshalField[bool](t, body, "valid") {
		t.Fatal("plain system accepted a sharded proof")
	}
	resp, body = postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Seed: 7, Shards: 2, Trace: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traced sharded prove: status %d, want 400 (%s)", resp.StatusCode, body["error"])
	}
	var shardedRecs int
	for _, rec := range unmarshalField[[]requestRecord](t, getJSON(t, ts, "/stats"), "recent") {
		if rec.Shards == 2 {
			shardedRecs++
		} else if rec.Shards != 0 {
			t.Fatalf("plain request recorded with shards=%d", rec.Shards)
		}
	}
	if shardedRecs != 3 { // the prove, its verify, and the refused traced prove
		t.Fatalf("/stats shows %d records with shards=2, want 3", shardedRecs)
	}
	ts.Close()

	// Daemon restart over the populated store: the first prove deserializes
	// the artifact — no optimizer sweep, no keygen, no SRS extension.
	ts2 := httptest.NewServer(newServer(testConfig(keysDir)))
	defer ts2.Close()
	resp, body = postJSON(t, ts2, "/prove", proveRequest{Model: "dlrm-micro", Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart prove: status %d: %s", resp.StatusCode, body["error"])
	}
	if unmarshalField[string](t, body, "source") != "store" {
		t.Fatalf("restart prove source %s, want store", body["source"])
	}
	// The store holds keys and SRS powers, not commit tables or the Lagrange
	// SRS: a fresh process builds one table per basis (coefficient and
	// Lagrange) and derives the Lagrange points in its first prove. (This
	// process already has them cached, so here they are usually zero.)
	restartWork := unmarshalField[map[string]int64](t, body, "setup_work")
	if b := restartWork["commit_table_builds"]; b > 2 {
		t.Fatalf("restart prove built commitment tables %d times, want at most one per basis", b)
	}
	restartWork["commit_table_builds"] = 0
	restartWork["kzg_lagrange_derived"] = 0
	if !setupIsZero(restartWork) {
		t.Fatalf("cold start from populated store did setup work: %s", body["setup_work"])
	}
	// ... then zero: the second prove after the restart does no set-up work.
	resp, body = postJSON(t, ts2, "/prove", proveRequest{Model: "dlrm-micro", Seed: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second restart prove: status %d: %s", resp.StatusCode, body["error"])
	}
	if !setupIsZero(unmarshalField[map[string]int64](t, body, "setup_work")) {
		t.Fatalf("second prove after restart did setup work: %s", body["setup_work"])
	}
	// The chain restarts from its per-chunk artifacts in the same store.
	resp, body = postJSON(t, ts2, "/prove", proveRequest{Model: "dlrm-micro", Seed: 7, Shards: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded restart prove: status %d: %s", resp.StatusCode, body["error"])
	}
	if unmarshalField[string](t, body, "source") != "store" {
		t.Fatalf("sharded restart prove source %s, want store", body["source"])
	}
	if got := unmarshalField[[]float64](t, body, "outputs"); !reflect.DeepEqual(got, shardedOutputs) {
		t.Fatalf("sharded outputs changed across the restart: %v vs %v", got, shardedOutputs)
	}
	resp, body = postJSON(t, ts2, "/verify", verifyRequest{Model: "dlrm-micro", Proof: shardedB64, Shards: 2})
	if resp.StatusCode != http.StatusOK || !unmarshalField[bool](t, body, "valid") {
		t.Fatalf("restarted daemon rejected the first daemon's sharded proof: %d %s", resp.StatusCode, body["error"])
	}
}

// TestDaemonRejectsBadShardCounts is the regression test for the cache
// filling up from untrusted input: every distinct out-of-range "shards"
// value in a /prove or /verify body used to leave a permanent error entry in
// server.systems. They must be 400s that cache nothing; 0 and 1 both mean
// the plain system and share its slot.
func TestDaemonRejectsBadShardCounts(t *testing.T) {
	srv := newServer(testConfig(""))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, shards := range []int{-1, -7, 1000, 1001, 1 << 30} {
		resp, _ := postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Shards: shards})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("prove with shards=%d: status %d, want 400", shards, resp.StatusCode)
		}
		resp, _ = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro", Proof: "AAAA", Shards: shards})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("verify with shards=%d: status %d, want 400", shards, resp.StatusCode)
		}
	}
	srv.mu.Lock()
	cached := len(srv.systems)
	srv.mu.Unlock()
	if cached != 0 {
		t.Fatalf("rejected shard counts left %d cache entries behind", cached)
	}
	zero, err := srv.system("dlrm-micro", 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := srv.system("dlrm-micro", 1)
	if err != nil {
		t.Fatal(err)
	}
	if zero != one || len(srv.systems) != 1 {
		t.Fatalf("shards 0 and 1 did not share one cache slot (%d entries)", len(srv.systems))
	}
}

func TestParsePreload(t *testing.T) {
	for item, want := range map[string]struct {
		name   string
		shards int
	}{"mnist": {"mnist", 1}, "mnist@3": {"mnist", 3}, "gpt2-micro@1": {"gpt2-micro", 1}} {
		name, shards, err := parsePreload(item)
		if err != nil || name != want.name || shards != want.shards {
			t.Fatalf("parsePreload(%q) = %q, %d, %v", item, name, shards, err)
		}
	}
	// Sscanf("%d") used to accept the first of these as 3 shards.
	for _, item := range []string{"mnist@3x", "mnist@", "mnist@0", "mnist@-2", "mnist@2@3", "mnist@ 2"} {
		if _, _, err := parsePreload(item); err == nil {
			t.Fatalf("parsePreload(%q) accepted", item)
		}
	}
}

func TestDaemonAdmissionControl(t *testing.T) {
	srv := newServer(testConfig(""))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Saturate every prove slot, then expect load shedding with a
	// Retry-After hint rather than unbounded queueing.
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	resp, body := postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated prove: status %d, want 429 (%s)", resp.StatusCode, body["error"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	for i := 0; i < cap(srv.sem); i++ {
		<-srv.sem
	}

	// Unknown models and bad bodies are client errors, not crashes.
	resp, _ = postJSON(t, ts, "/prove", proveRequest{Model: "no-such-model"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model: status %d, want 400", resp.StatusCode)
	}
	httpResp, err := ts.Client().Post(ts.URL+"/prove", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", httpResp.StatusCode)
	}
}

func TestDaemonProveTimeout(t *testing.T) {
	cfg := testConfig("")
	cfg.ProveTimeout = time.Millisecond
	ts := httptest.NewServer(newServer(cfg))
	defer ts.Close()
	resp, _ := postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Seed: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}
