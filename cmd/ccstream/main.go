// Command ccstream labels a PBM or PGM image (raw P4/P5 or plain P1/P2)
// with the out-of-core band labeler: only one fixed-height band of pixels stays
// resident (independent of image height), per-component statistics
// accumulate during the pass, provisional labels spill to a scratch file,
// and the result is written as a CCL1 label stream (see internal/stream for
// the format).
//
// Usage:
//
//	ccstream -o labels.ccl [-band rows] [-stats] huge.pbm
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.CCStream(os.Args[1:], os.Stdout, os.Stderr))
}
