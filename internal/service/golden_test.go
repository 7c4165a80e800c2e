package service

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/jobs"
)

// goldenArt is a small binary fixture with components of several shapes,
// so areas, boxes and fractional centroids all show up in the JSON.
const goldenArt = `
	##....#..#
	##.#..#..#
	...#......
	.####..###
	.......#.#`

// phaseValue matches a phase timing field; its value varies run to run.
var phaseValue = regexp.MustCompile(`("(?:scan|merge|flatten|relabel)_ns":)[0-9]+`)

// TestResponseGolden pins the response bytes of the three JSON renderings
// of a labelling — POST /v1/label, POST /v1/stats and GET
// /v1/jobs/{id}/result — for one small P4, with phase timings masked to 0.
// The files under testdata/golden are the service's wire format: a
// difference is a client-visible change.
func TestResponseGolden(t *testing.T) {
	img, err := paremsp.ParseImage(goldenArt)
	if err != nil {
		t.Fatal(err)
	}
	body := pbmBody(t, img)
	// One labelling thread: pbremsp numbers labels chunk-major, so the
	// label values would otherwise depend on the machine's CPU count.
	_, _, srv := newJobsServer(t, Config{Workers: 1, Threads: 1}, jobs.Options{TTL: time.Hour})

	readOK := func(resp *http.Response) []byte {
		t.Helper()
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return b
	}
	job := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, body).Jobs[0]
	pollJob(t, srv.URL, job.ID, string(jobs.StateDone))

	for name, got := range map[string][]byte{
		"label.json":      readOK(post(t, srv.URL+"/v1/label", ctPBM, ctJSON, body)),
		"stats.json":      readOK(post(t, srv.URL+"/v1/stats", ctPBM, ctJSON, body)),
		"job_result.json": fetchResultBytes(t, srv.URL, job.ID),
	} {
		got = phaseValue.ReplaceAll(got, []byte("${1}0"))
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden file:\n got %s\nwant %s", name, got, want)
		}
	}
}
