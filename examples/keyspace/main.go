// Keyspace: a sharded multi-object service — many independent replicated
// counters partitioned across four ESDS clusters by consistent hash, all
// behind one API, their replicas executed by the shard-per-core worker
// runtime (DESIGN.md §9). Each named object keeps the full ESDS semantics
// (non-strict speed, strict finality, per-object causal sessions); the
// shards give the deployment aggregate throughput a single cluster cannot
// reach (benchmark/run.sh's keyspace_openloop workload measures it).
//
// Run with:
//
//	go run ./examples/keyspace
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"esds"
)

func main() {
	ks, err := esds.New(esds.Config{
		Shards:         4,
		Replicas:       3,
		DataType:       esds.Counter(),
		GossipInterval: 2 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ks.Close()

	// 16 visitors hammer 8 page-view counters concurrently. Objects land on
	// shards by consistent hash; ops on different shards never contend.
	pages := []string{
		"home", "docs", "pricing", "blog",
		"about", "careers", "support", "status",
	}
	for _, page := range pages {
		fmt.Printf("object %-8q lives on shard %d\n", page, ks.ShardOf(page))
	}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		views = make(map[string][]esds.ID) // per-page write ids, for strict read prev sets
	)
	for v := 0; v < 16; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			visitor := fmt.Sprintf("visitor%d", v)
			for i := 0; i < 25; i++ {
				page := pages[(v+i)%len(pages)]
				_, id, err := ks.Object(page).Client(visitor).Apply(esds.Add(1))
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				views[page] = append(views[page], id)
				mu.Unlock()
			}
		}(v)
	}
	wg.Wait()
	fmt.Println("16 visitors recorded 400 page views")

	// A per-object causal session: read-your-writes within one object. Its
	// write joins home's prev set below so the report counts it too —
	// strictness alone fixes an operation's position, it does not order it
	// after earlier unconstrained operations.
	sess := ks.Object("home").Client("auditor").Session()
	_, auditID, _ := sess.Apply(esds.Add(1))
	views["home"] = append(views["home"], auditID)
	v, _, _ := sess.Apply(esds.ReadCounter())
	fmt.Printf("auditor session read-your-write on %q -> %v\n", "home", v)

	// Strict totals per object, each ordered (prev) after every recorded
	// view of its page: final values that count all 400 writes. Prev
	// constraints stay within an object's shard — which is all these need.
	var total int64
	for _, page := range pages {
		v, _, err := ks.Object(page).Client("report").ApplyAfter(esds.ReadCounter(), true, views[page]...)
		if err != nil {
			log.Fatal(err)
		}
		total += v.(int64)
	}
	fmt.Printf("strict per-object totals count %d views (400 visitors + 1 auditor)\n", total)

	m := ks.Metrics()
	fmt.Printf("keyspace metrics across %d shards: %d requests, %d labels assigned, %d gossip messages (%d idle rounds suppressed)\n",
		ks.NumShards(), m.RequestsReceived, m.DoItCount, m.GossipSent, m.GossipSuppressed)
}
