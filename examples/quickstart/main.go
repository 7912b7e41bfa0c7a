// Command quickstart is the quickstart tour: parse the textbook MSI SSP (paper Tables I/II), generate the
// complete non-stalling protocol (paper Table VI), print it, and verify it
// with the built-in model checker.
package main

import (
	"context"
	"fmt"
	"log"

	"protogen"
)

func main() {
	// 1. Parse the atomic stable-state specification.
	spec, err := protogen.Parse(protogen.BuiltinMSI)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed SSP %q: %d cache processes, %d directory processes\n",
		spec.Name, len(spec.Cache.Txns), len(spec.Dir.Txns))

	// 2. Generate the concurrent protocol with all transient states.
	p, err := protogen.Generate(spec, protogen.NonStalling())
	if err != nil {
		log.Fatal(err)
	}
	cs, ct, _ := p.Cache.Counts()
	ds, dt, _ := p.Dir.Counts()
	fmt.Printf("generated: cache %d states / %d transitions, directory %d states / %d transitions\n",
		cs, ct, ds, dt)

	// 3. Print the cache controller the way the paper's Table VI does.
	fmt.Println(protogen.RenderTable(p.Cache, protogen.TableOptions{}))

	// 4. Model-check it: SWMR, data values, deadlock freedom.
	cfg := protogen.QuickVerifyConfig()
	res, err := protogen.NewEngine().Verify(context.Background(), protogen.VerifyJob{Protocol: p, Config: &cfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	if res.Verdict() != protogen.Pass {
		log.Fatalf("verification did not pass: %s", res)
	}
}
