// Command encore-origin runs a demonstration origin Web site that has
// "volunteered" to host Encore: every page it serves carries the one-line
// embed snippet pointing at a coordination server (§5.4, §6.3).
package main

import (
	"context"
	"flag"
	"log"
	"net"

	"encore/internal/api"
	"encore/internal/core"
	"encore/internal/originserver"
)

func main() {
	var (
		addr         = flag.String("addr", ":8082", "listen address")
		siteName     = flag.String("site", "professor.example.edu", "site name shown on pages and sent as Referer")
		coordinator  = flag.String("coordinator", "//localhost:8080", "coordination server base URL")
		collector    = flag.String("collector", "//localhost:8081", "collection server base URL")
		useIFrame    = flag.Bool("iframe-embed", false, "use the iframe embed variant instead of the script tag")
		disableEmbed = flag.Bool("disable-encore", false, "serve pages without the Encore snippet (for overhead comparison)")
	)
	flag.Parse()

	snippet := core.SnippetOptions{CoordinatorURL: *coordinator, CollectorURL: *collector}
	server := originserver.New(*siteName, snippet)
	server.UseIFrameEmbed = *useIFrame
	server.EnableEncore = !*disableEmbed

	overhead := server.PageOverheadBytes(server.Pages()["/"])
	log.Printf("origin site %q: Encore adds %d bytes per page", *siteName, overhead)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("origin site listening on %s", ln.Addr())
	if err := api.Serve(context.Background(), ln, server); err != nil {
		log.Fatal(err)
	}
}
