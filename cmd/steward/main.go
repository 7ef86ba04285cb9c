// Command steward is the client for one or more stewarding sites: store
// and fetch objects, inspect health, trigger scrubs, and — with multiple
// sites — the federated store over them (paper §5.3): writes to every
// reachable site, reads that fail over and fall back to block exchange, and
// the steward pass that repairs every site from the others.
//
// Usage:
//
//	steward -sites http://a:8080 put name < file
//	steward -sites http://a:8080,http://b:8081 get name > file
//	steward -sites http://a:8080 health
//	steward -sites http://a:8080,http://b:8081 pass
//
// Every request carries a per-request deadline (-timeout) and transient
// failures are retried with jittered backoff (-retries). Ctrl-C cancels
// the in-flight operation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tornado"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("steward: ")

	var (
		sitesFlag = flag.String("sites", "http://localhost:8080", "comma-separated site base URLs")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request deadline")
		retries   = flag.Int("retries", 3, "attempts per request before a site is deemed unavailable")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		log.Fatal("usage: steward -sites <urls> {put|get|rm|ls|stat|health|scrub|pass} [name]")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := tornado.SiteClientOptions{RequestTimeout: *timeout, MaxAttempts: *retries}
	var clients []*tornado.SiteClient
	var sites []tornado.FederatedSite
	for _, u := range strings.Split(*sitesFlag, ",") {
		c := tornado.NewSiteClientWithOptions(strings.TrimSpace(u), opts)
		clients = append(clients, c)
		sites = append(sites, c)
	}
	single := clients[0]
	// federation opens the one federated store over the sites: a write needs
	// one site, every site that is up gets it, the pass brings it to the rest.
	federation := func() *tornado.FederatedStore {
		f, err := tornado.OpenFederatedStore(ctx, sites, tornado.FederatedConfig{WriteQuorum: 1})
		if err != nil {
			log.Fatal(err)
		}
		return f
	}

	needName := func() string {
		if len(args) < 2 {
			log.Fatalf("%s needs an object name", args[0])
		}
		return args[1]
	}

	switch args[0] {
	case "put":
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		name := needName()
		if len(clients) > 1 {
			f := federation()
			if err := f.PutCtx(ctx, name, data); err != nil {
				log.Fatal(err)
			}
			live := 0
			for _, st := range f.Health() {
				if st.Up {
					live++
				}
			}
			log.Printf("stored %q (%d bytes) at %d/%d sites", name, len(data), live, len(clients))
		} else {
			if err := single.Put(ctx, name, data); err != nil {
				log.Fatal(err)
			}
			log.Printf("stored %q (%d bytes)", name, len(data))
		}
	case "get":
		name := needName()
		get := single.Get
		if len(clients) > 1 {
			get = federation().GetCtx
		}
		data, err := get(ctx, name)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
	case "pass":
		rep, err := federation().PassCtx(ctx)
		for _, st := range rep.Sites {
			state := "healthy"
			if !st.Up {
				state = fmt.Sprintf("DOWN (%s)", st.LastError)
			}
			fmt.Printf("site %d %s: %s\n", st.Site, clients[st.Site].BaseURL(), state)
		}
		for _, r := range rep.Repairs {
			fmt.Printf("site %d repair: %d objects restored, %d blocks rebuilt locally, %d imported, %d stripes exchanged; %d blocks missing, %d stripes unrecoverable\n",
				r.Site, r.ShellsSynced, r.LocalRepairs, r.DirectImports, r.ExchangedStripes, r.MissingAfter, r.Unrecoverable)
		}
		fmt.Printf("steward pass: %d sites repaired, %d skipped, %d readmitted\n",
			len(rep.Repairs), len(rep.Skipped), len(rep.Readmitted))
		if err != nil {
			log.Fatal(err)
		}
	case "rm":
		name := needName()
		for _, c := range clients {
			if err := c.Delete(ctx, name); err != nil {
				log.Printf("delete: %v", err)
			}
		}
	case "ls":
		objs, err := single.List(ctx)
		if err != nil {
			log.Fatal(err)
		}
		for _, o := range objs {
			fmt.Printf("%10d  %2d stripes  %s\n", o.Size, o.Stripes, o.Name)
		}
	case "stat":
		obj, err := single.Stat(ctx, needName())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d bytes, %d stripes\n", obj.Name, obj.Size, obj.Stripes)
	case "health", "scrub":
		for i, c := range clients {
			rep, err := c.Scrub(ctx, args[0] == "scrub")
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("site %d: %d stripes, %d at risk, %d unrecoverable, %d blocks repaired\n",
				i, len(rep.Stripes), rep.AtRisk, rep.Unrecoverable, rep.BlocksRepaired)
		}
	default:
		log.Fatalf("unknown command %q", args[0])
	}
}
