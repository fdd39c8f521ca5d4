package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (:0 picks a free port, printed to stderr)")
	store := flag.String("store", "faultserve-store", "content-addressed store directory (one verdict journal per campaign fingerprint)")
	shardSize := flag.Int("shard-size", serve.DefaultShardSize, "shard width in sites (the unit of work distribution and caching)")
	lease := flag.Duration("lease", serve.DefaultLease, "shard lease duration; a silent worker forfeits its shard after this long")
	flag.Parse()

	srv, err := serve.New(serve.Config{
		StoreDir:  *store,
		ShardSize: *shardSize,
		Lease:     *lease,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultserve:", err)
		os.Exit(1)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultserve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "faultserve: listening on http://%s (store %s)\n", ln.Addr(), *store)
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "faultserve:", err)
		os.Exit(1)
	}
}
