// Command arkfsck checks the consistency of an ArkFS object-store image:
// namespace reachability, dangling dentries, orphan inodes/chunks, chunk
// extents, CRC32C digests on every persisted record, and pending or torn
// journal records.
//
// Usage:
//
//	arkfsck -store http://localhost:9000            check only
//	arkfsck -store http://localhost:9000 -scrub     plan repairs (read-only)
//	arkfsck -store http://localhost:9000 -repair    apply repairs
//
// Repair truncates corrupt journals at the first bad record, restores
// corrupt inodes from journaled copies, rebuilds corrupt dentry blocks by
// journal replay, quarantines unrecoverable objects under the quarantine/
// prefix, and collects orphans (only once no journal records are pending).
package main

import (
	"flag"
	"fmt"
	"os"

	"arkfs/internal/fsck"
	"arkfs/internal/objstore"
)

func main() {
	storeURL := flag.String("store", "", "objstored base URL (required)")
	scrub := flag.Bool("scrub", false, "plan repairs without modifying the store")
	repair := flag.Bool("repair", false, "repair the image (implies -scrub)")
	flag.Parse()
	if *storeURL == "" {
		fmt.Fprintln(os.Stderr, "arkfsck: -store is required (an objstored URL)")
		os.Exit(2)
	}
	var store objstore.Store = objstore.NewHTTPStore(*storeURL)

	if !*scrub && !*repair {
		rep, err := fsck.Check(store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arkfsck: %v\n", err)
			os.Exit(2)
		}
		printReport(rep)
		if !rep.Clean() {
			os.Exit(1)
		}
		return
	}

	srep, err := fsck.Scrub(store, *repair)
	if err != nil {
		fmt.Fprintf(os.Stderr, "arkfsck: scrub: %v\n", err)
		os.Exit(2)
	}
	fmt.Println("before repair:")
	printReport(srep.Pre)
	verb := "applied"
	if srep.Planned {
		verb = "planned"
	}
	fmt.Printf("%d action(s) %s:\n", len(srep.Actions), verb)
	for _, a := range srep.Actions {
		fmt.Printf("  %s\n", a)
	}
	if srep.GCSkipped {
		fmt.Println("note: orphan collection withheld (journal records pending recovery)")
	}
	if srep.Post != nil {
		fmt.Println("after repair:")
		printReport(srep.Post)
		if !srep.Post.Clean() {
			os.Exit(1)
		}
	} else if !srep.Pre.Clean() {
		os.Exit(1)
	}
}

func printReport(rep *fsck.Report) {
	fmt.Printf("scanned: %d dirs, %d files, %d symlinks, %d chunks\n",
		rep.Dirs, rep.Files, rep.Symlinks, rep.Chunks)
	if rep.PendingJournalRecords > 0 {
		fmt.Printf("note: %d journal record(s) pending recovery (unclean shutdown)\n",
			rep.PendingJournalRecords)
	}
	if rep.Quarantined > 0 {
		fmt.Printf("note: %d object(s) in quarantine\n", rep.Quarantined)
	}
	if rep.Clean() {
		fmt.Println("clean: no inconsistencies found")
		return
	}
	fmt.Printf("%d problem(s):\n", len(rep.Problems))
	for _, p := range rep.Problems {
		fmt.Printf("  %s\n", p)
	}
}
