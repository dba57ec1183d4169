package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/zkml"
)

func main() {
	fs := flag.NewFlagSet("zkmld", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address")
	keys := fs.String("keys", "zkml-keys", "artifact store directory (empty disables persistence)")
	backend := fs.String("backend", "kzg", "commitment backend: kzg or ipa")
	scaleBits := fs.Int("scale-bits", 6, "fixed-point scale bits")
	lookupBits := fs.Int("lookup-bits", 10, "lookup table precision bits")
	maxCols := fs.Int("max-cols", 24, "maximum advice columns to search")
	maxInflight := fs.Int("max-inflight", 2, "maximum concurrent proves before shedding (429)")
	timeout := fs.Duration("timeout", 10*time.Minute, "per-request prove deadline")
	preload := fs.String("preload", "", "comma-separated models to load at startup (use model@N for a sharded system)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	o := zkml.Options{ScaleBits: *scaleBits, LookupBits: *lookupBits, MaxCols: *maxCols,
		CalibrationPath: os.Getenv("ZKML_CALIBRATION")}
	switch *backend {
	case "kzg":
		o.Backend = zkml.KZG
	case "ipa":
		o.Backend = zkml.IPA
	default:
		fmt.Fprintf(os.Stderr, "zkmld: unknown backend %q\n", *backend)
		os.Exit(2)
	}

	srv := newServer(config{
		KeysDir:      *keys,
		Options:      o,
		MaxInflight:  *maxInflight,
		ProveTimeout: *timeout,
	})
	for _, name := range strings.Split(*preload, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		name, shards, err := parsePreload(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zkmld: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		e, err := srv.system(name, shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zkmld: preload %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("zkmld: preloaded %s from %s in %v\n", name, e.source, time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("zkmld: listening on %s (backend=%s, keys=%s, max-inflight=%d)\n",
		*addr, *backend, *keys, *maxInflight)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		fmt.Fprintln(os.Stderr, "zkmld:", err)
		os.Exit(1)
	}
}

// parsePreload splits one -preload item, "model" or "model@N", into the
// model name and shard count.
func parsePreload(item string) (name string, shards int, err error) {
	name, n, sharded := strings.Cut(item, "@")
	if !sharded {
		return name, 1, nil
	}
	if shards, err = strconv.Atoi(n); err != nil || shards < 1 {
		return "", 0, fmt.Errorf("preload %s: bad shard count %q", item, n)
	}
	return name, shards, nil
}
