// Command unordered demonstrates unordered-network MSI (paper §VI-C): the SSP adds Unblock handshakes so
// the directory serializes conflicting transactions, which makes the
// protocol correct without point-to-point ordering. ProtoGen generates the
// concurrency; the model checker explores an unordered interconnect.
package main

import (
	"context"
	"fmt"
	"log"

	"protogen"
)

func main() {
	p, err := protogen.GenerateSource(protogen.BuiltinMSIUnordered, protogen.NonStalling())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network ordered: %v\n\n", p.Ordered)

	fmt.Println("Directory controller (busy states hold the serialization):")
	fmt.Println(protogen.RenderTable(p.Dir, protogen.TableOptions{}))

	fmt.Println("Verifying on an unordered network (messages delivered in any order):")
	cfg := protogen.QuickVerifyConfig()
	res, err := protogen.NewEngine().Verify(context.Background(), protogen.VerifyJob{Protocol: p, Config: &cfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	if res.Verdict() != protogen.Pass {
		log.Fatalf("verification did not pass: %s", res)
	}
	fmt.Println("\nThe same stable states as MSI, with the races the paper describes")
	fmt.Println("handled by generated transient states — no manual concurrency design.")
}
