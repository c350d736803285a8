package main

// Smoke test: keeps this example package inside the tier-1 `go test
// ./...` net by running a miniature of the batch flows main demonstrates.

import (
	"context"
	"testing"

	"repro/internal/core"
)

func TestBatchFlow(t *testing.T) {
	res, err := core.SolveBatch(context.Background(),
		core.BatchCAP([]int{9, 10, 10}, core.Options{}),
		core.BatchOptions{MasterSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Solved != 3 || res.Stats.Errors != 0 {
		t.Fatalf("batch stats %+v", res.Stats)
	}
}
