// Command encore-targetsite serves one synthetic measurement-target site
// (for example youtube.com's stand-in) over real HTTP, with the same content
// types, sizes, and caching headers the simulation assumes. Together with
// encore-coordinator, encore-collector, and encore-origin it completes a
// loopback deployment in which generated measurement tasks fetch from an
// actual Web server.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"sort"

	"encore/internal/api"
	"encore/internal/webgen"
)

func main() {
	var (
		addr   = flag.String("addr", ":8084", "listen address")
		domain = flag.String("domain", "youtube.com", "synthetic domain to serve")
		seed   = flag.Uint64("seed", 1, "seed for the synthetic Web")
		list   = flag.Bool("list", false, "list available domains and exit")
	)
	flag.Parse()

	web := webgen.Generate(webgen.DefaultConfig(*seed))
	if *list {
		domains := web.ContentDomains()
		sort.Strings(domains)
		for _, d := range domains {
			fmt.Println(web.DescribeSite(d))
		}
		return
	}

	handler, err := web.Handler(*domain)
	if err != nil {
		log.Fatalf("%v (use -list to see available domains)", err)
	}
	if fav, ok := web.FaviconOf(*domain); ok {
		log.Printf("serving %s; favicon at %s (%d bytes) is a good image-task target", *domain, fav.URL, fav.SizeBytes)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("target site %s listening on %s", *domain, ln.Addr())
	if err := api.Serve(context.Background(), ln, handler); err != nil {
		log.Fatal(err)
	}
}
