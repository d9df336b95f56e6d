// Command encore-testbed runs the Web censorship testbed's content server
// (§7.1). The real testbed's filtering happens in DNS and firewall
// configuration; this binary serves the content half (a pixel image, a probe
// style sheet, a nosniff script, and a small page) and prints the subdomain
// layout a deployment would configure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"

	"encore/internal/api"
	"encore/internal/censor"
	"encore/internal/testbed"
)

func main() {
	var (
		addr   = flag.String("addr", ":8083", "listen address")
		domain = flag.String("domain", "testbed.encore-test.org", "base domain the testbed subdomains hang off")
	)
	flag.Parse()

	tb := testbed.New(*domain)
	fmt.Println("testbed subdomain layout (configure DNS/firewall accordingly):")
	fmt.Printf("  %-40s unfiltered control\n", tb.ControlDomain())
	for _, m := range censor.Mechanisms() {
		fmt.Printf("  %-40s emulate %s\n", tb.MechanismDomain(m), m)
	}
	fmt.Printf("  %-40s must not resolve (DNS control)\n", tb.MissingDomain())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("testbed content server listening on %s", ln.Addr())
	if err := api.Serve(context.Background(), ln, tb.Handler()); err != nil {
		log.Fatal(err)
	}
}
