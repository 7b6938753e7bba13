package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// v1GoldenChildEnv, when set, turns the test binary into the renderer of
// the leaksd /v1 golden: TestMain prints renderLeaksdV1's output and exits
// before any test runs. The /v1/engine body carries the process-wide world
// snapshot restore count, so its bytes are only reproducible in a process
// that has run nothing else; renderV1Golden re-executes the test binary to
// get one.
const v1GoldenChildEnv = "REPRO_LEAKSD_V1_GOLDEN_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(v1GoldenChildEnv) != "" {
		out, err := renderLeaksdV1()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.WriteString(out)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// renderV1Golden is the leaksd-v1 golden case: renderLeaksdV1 run in a
// fresh copy of the test binary.
func renderV1Golden(int) (string, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), v1GoldenChildEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("render /v1 golden in a child process: %v\n%s", err, stderr.Bytes())
	}
	return string(out), nil
}

// renderLeaksdV1 drives a leaksd handler through a fixed serial scan
// sequence — an inspect of every provider, one runtime, and a repeat that
// the result store answers — on a frozen clock, waiting for each scan's
// scan_done event before the next submission. It then prints the status,
// the validators and the body of each pinned read: the Table I results,
// the matrix, a filtered scans page and an empty one, the engine counters,
// the static listings, and a /v1 error envelope and a legacy flat error
// whose messages quote an ID with a comma in it.
func renderLeaksdV1() (string, error) {
	now := time.Date(2017, 6, 26, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	sched := service.New(service.Config{Workers: 1, Now: clock}, nil)
	sched.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	}()
	h := service.NewHandler(service.APIConfig{Scheduler: sched, Version: "leaksd golden", Now: clock})
	events, unsubscribe := sched.Subscribe()
	defer unsubscribe()

	var requests []string
	for _, p := range service.ProviderNames() {
		requests = append(requests, fmt.Sprintf(`{"kind":"inspect","provider":%q}`, p))
	}
	requests = append(requests, `{"kind":"inspect","runtime":"gvisor"}`, `{"kind":"inspect","provider":"cc1"}`)
	for _, body := range requests {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scans", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
			return "", fmt.Errorf("POST %s: status %d: %s", body, rec.Code, rec.Body)
		}
		var job service.Job
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			return "", fmt.Errorf("POST %s: %v", body, err)
		}
		if err := awaitScanDone(events, job.ID); err != nil {
			return "", err
		}
	}

	var b strings.Builder
	for _, target := range []string{
		"/v1/results",
		"/v1/matrix",
		"/v1/scans?limit=10&offset=0&verdict=available",
		"/v1/scans?runtime=kata",
		"/v1/engine",
		"/v1/channels",
		"/v1/providers",
		"/v1/scans/scan-000001,scan-000002",
		"/scans/scan-000001,scan-000002",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		hdr := rec.Result().Header
		fmt.Fprintf(&b, "### GET %s %d etag=%s total=%s (%d bytes)\n%s", target, rec.Code,
			hdr.Get("Etag"), hdr.Get("X-Total-Count"), rec.Body.Len(), rec.Body)
	}
	return b.String(), nil
}

// awaitScanDone reads the event stream until job id's scan_done event.
func awaitScanDone(events <-chan service.Event, id string) error {
	timeout := time.After(2 * time.Minute)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return fmt.Errorf("event stream closed before %s finished", id)
			}
			if ev.Type == service.EventScanFailed && ev.JobID == id {
				return fmt.Errorf("scan %s failed: %s", id, ev.Error)
			}
			if ev.Type == service.EventScanDone && ev.JobID == id {
				return nil
			}
		case <-timeout:
			return fmt.Errorf("scan %s never finished", id)
		}
	}
}
