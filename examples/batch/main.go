// Batch walkthrough: submit grouped requests through the batched
// surface. Apply runs a whole batch under one shard-lock acquisition
// per touched shard with per-op error reporting; InsertBatch and
// DeleteBatch wrap it for homogeneous batches.
package main

import (
	"fmt"
	"log"

	"realloc"
)

func main() {
	s, err := realloc.NewSharded(
		realloc.WithShards(4),
		realloc.WithEpsilon(0.25),
	)
	if err != nil {
		log.Fatal(err)
	}

	// A mixed batch executes in submission order; nil means every op
	// succeeded. A batch is a sequence, not a transaction.
	batch := make(realloc.Batch, 0, 64)
	for id := int64(1); id <= 64; id++ {
		batch = append(batch, realloc.InsertOp(id, 16*id))
	}
	if errs := s.Apply(batch); errs != nil {
		log.Fatalf("seed batch failed: %v", errs)
	}
	fmt.Printf("after seed batch: %d objects, volume %d\n", s.Len(), s.Volume())

	// Per-op errors come back at submission indexes and one op's
	// failure never stops the rest: the duplicate insert below fails,
	// the delete and the fresh insert around it still run.
	errs := s.Apply(realloc.Batch{
		realloc.DeleteOp(1),
		realloc.InsertOp(2, 64), // duplicate: fails
		realloc.InsertOp(100, 64),
	})
	for i, err := range errs {
		if err != nil {
			fmt.Printf("op %d rejected: %v\n", i, err)
		}
	}
	fmt.Printf("after mixed batch: has(1)=%v has(100)=%v\n", s.Has(1), s.Has(100))

	// InsertBatch/DeleteBatch wrap Apply for homogeneous batches.
	if errs := s.DeleteBatch([]int64{2, 3, 4, 5}); errs != nil {
		log.Fatalf("delete batch failed: %v", errs)
	}

	fmt.Printf("final: %d objects, volume %d, footprint %d\n",
		s.Len(), s.Volume(), s.Footprint())
}
