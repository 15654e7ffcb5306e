// Command kernelbench measures the two Eq. 4 loops in isolation: per-term
// timings for the scalar (dense) and sparse loops across the four
// denominator cases at 1%, 5% and 100% interest density. Emits
// sesbench-compatible rows (-json) so cmd/benchdiff can gate utility drift
// and wall time; see bench/baseline/README.md.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Kernelbench(os.Args[1:], os.Stdout, os.Stderr))
}
