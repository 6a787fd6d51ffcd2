package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ladiff/internal/fault"
)

// TestChaosBatchJobStorm is the batch/job fault storm: 200 concurrent
// requests mixing batch fan-outs, async job submissions (some with a
// webhook against a flapping 503 endpoint), polls, and racing cancels,
// with injected failures at the scheduling core's two new fault points
// — sched.acquire (admission) and job.persist (submission). It then
// drains the server with jobs still gated in flight. The invariants:
//
//   - exactly-once job accounting: every submit got exactly one of
//     {submitted, rejected}; after drain, submitted == done + failed +
//     canceled and both gauges are zero;
//   - every batch envelope stays coherent (one result per item,
//     succeeded+failed == items) no matter which items the injector ate;
//   - a job observed canceled never delivers its webhook;
//   - no goroutine outlives the drain (testleak brackets the server).
func TestChaosBatchJobStorm(t *testing.T) {
	s, ts, done := chaosServer(t, Config{
		MaxConcurrent:  4,
		MaxQueue:       256,
		MaxJobs:        256,
		JobTTL:         50 * time.Millisecond,
		WebhookBackoff: time.Millisecond,
	})
	defer done()

	var (
		hookMu    sync.Mutex
		hookCalls int
		delivered = make(map[string]int)
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hookMu.Lock()
		defer hookMu.Unlock()
		hookCalls++
		if hookCalls%2 == 1 { // flap: every other delivery attempt bounces
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		var st JobStatus
		if json.NewDecoder(r.Body).Decode(&st) == nil && st.ID != "" {
			delivered[st.ID]++
		}
	}))
	defer hook.Close()

	deactivate := fault.Activate(fault.Plan{Seed: 1207, Rules: []fault.Rule{
		{Point: fault.SchedAcquire, Mode: fault.ModeError, P: 0.1},
		{Point: fault.JobPersist, Mode: fault.ModeError, P: 0.2},
	}})
	defer deactivate()

	tiny := DiffRequest{
		Old:    "The first tiny paragraph sits here unchanged.",
		New:    "The first tiny paragraph sits here, edited once.",
		Format: "text",
	}
	const workers, perWorker = 8, 25
	var (
		mu               sync.Mutex
		submits          int64
		accepted         int64
		firstDoneID      string
		canceledObserved = make(map[string]bool)
		wg               sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					// Batch leg: three items through the shared slots.
					items := make([]BatchDiffItem, 3)
					for j := range items {
						items[j].DiffRequest = tiny
					}
					status, body, _ := postJSON(t, ts, "/v1/diff/batch", BatchDiffRequest{Items: items})
					if status != http.StatusOK {
						t.Errorf("batch status %d: %s", status, body)
						continue
					}
					var out BatchDiffResponse
					if err := json.Unmarshal(body, &out); err != nil {
						t.Errorf("batch body: %v", err)
						continue
					}
					if len(out.Items) != 3 || out.Succeeded+out.Failed != 3 {
						t.Errorf("incoherent batch envelope: %s", body)
					}
					continue
				}
				// Job leg: submit (webhook on half), then maybe cancel.
				var req JobSubmitRequest
				req.DiffRequest = tiny
				if i%4 == 1 {
					req.Webhook = hook.URL
				}
				status, body, _ := postJSON(t, ts, "/v1/jobs/diff", req)
				mu.Lock()
				submits++
				mu.Unlock()
				if status != http.StatusAccepted {
					if status != http.StatusTooManyRequests && status != http.StatusInternalServerError {
						t.Errorf("submit status %d: %s", status, body)
					}
					continue
				}
				var st JobStatus
				if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
					t.Errorf("202 body: %v %s", err, body)
					continue
				}
				mu.Lock()
				accepted++
				mu.Unlock()
				if (w+i)%3 == 0 {
					// Race a cancel against the runner; whatever terminal
					// state comes back is the one the job must keep.
					dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
					resp, err := ts.Client().Do(dreq)
					if err == nil {
						var cur JobStatus
						if resp.StatusCode == http.StatusOK &&
							json.NewDecoder(resp.Body).Decode(&cur) == nil && cur.Status == "canceled" {
							mu.Lock()
							canceledObserved[st.ID] = true
							mu.Unlock()
						}
						resp.Body.Close()
					}
				} else {
					mu.Lock()
					needDone := firstDoneID == ""
					mu.Unlock()
					if needDone {
						// Poll one job so the TTL expiry leg below has a
						// known-terminal id behind it.
						code, cur := jobHTTP(t, ts, http.MethodGet, st.ID)
						if code == http.StatusOK && cur.Status == "done" {
							mu.Lock()
							if firstDoneID == "" {
								firstDoneID = st.ID
							}
							mu.Unlock()
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// TTL leg: a terminal job outlives its retention only until the
	// next sweep-triggering read.
	waitFor(t, "some job to finish", func() bool { return s.met.Jobs.Done.Load() > 0 })
	time.Sleep(60 * time.Millisecond)                                                        // let JobTTL lapse
	status, body, _ := postJSON(t, ts, "/v1/jobs/diff", JobSubmitRequest{DiffRequest: tiny}) // submit sweeps
	mu.Lock()
	submits++
	if status == http.StatusAccepted {
		accepted++
	}
	mu.Unlock()
	if status != http.StatusAccepted && status != http.StatusInternalServerError {
		t.Errorf("sweep submit status %d: %s", status, body)
	}
	waitFor(t, "ttl sweep", func() bool { return s.met.Jobs.Expired.Load() > 0 })

	// Drain leg: gate a burst of webhook-carrying jobs mid-pipeline,
	// cancel them while their runners are still blocked inside the
	// pipeline, then shut down with those runners in flight. Every
	// burst job ends canceled — and canceled jobs never deliver. The
	// gate may only be installed once the store is idle: live runners
	// read it.
	waitFor(t, "storm jobs drained", func() bool {
		return s.met.Jobs.Queued.Load() == 0 && s.met.Jobs.Running.Load() == 0
	})
	s.testGate = make(chan struct{})
	burst := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		var req JobSubmitRequest
		req.DiffRequest = tiny
		req.Webhook = hook.URL
		status, body, _ := postJSON(t, ts, "/v1/jobs/diff", req)
		mu.Lock()
		submits++
		mu.Unlock()
		if status != http.StatusAccepted {
			continue // injected job.persist fault: counted rejected
		}
		var st JobStatus
		if json.Unmarshal(body, &st) == nil {
			burst = append(burst, st.ID)
			mu.Lock()
			accepted++
			mu.Unlock()
		}
	}
	if len(burst) == 0 {
		t.Fatal("every burst submit was rejected; cannot exercise drain-in-flight")
	}
	waitFor(t, "burst jobs running", func() bool { return s.met.Jobs.Running.Load() > 0 })
	for _, id := range burst {
		dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := ts.Client().Do(dreq)
		if err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
		var cur JobStatus
		if resp.StatusCode != http.StatusOK ||
			json.NewDecoder(resp.Body).Decode(&cur) != nil || cur.Status != "canceled" {
			t.Errorf("gated burst job %s cancel = %d %q, want 200 canceled", id, resp.StatusCode, cur.Status)
		}
		resp.Body.Close()
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(s.testGate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with jobs in flight: %v", err)
	}

	// Exactly-once accounting, audited bit-for-bit after the drain.
	jobs := &s.met.Jobs
	if got := jobs.Submitted.Load() + jobs.Rejected.Load(); got != submits {
		t.Errorf("submitted %d + rejected %d = %d, want every one of %d submits counted once",
			jobs.Submitted.Load(), jobs.Rejected.Load(), got, submits)
	}
	if got := jobs.Submitted.Load(); got != accepted {
		t.Errorf("submitted_total = %d, want %d (one per 202)", got, accepted)
	}
	terminal := jobs.Done.Load() + jobs.Failed.Load() + jobs.Canceled.Load()
	if got := jobs.Submitted.Load(); got != terminal {
		t.Errorf("submitted %d != done %d + failed %d + canceled %d after drain",
			got, jobs.Done.Load(), jobs.Failed.Load(), jobs.Canceled.Load())
	}
	if q, r := jobs.Queued.Load(), jobs.Running.Load(); q != 0 || r != 0 {
		t.Errorf("gauges after drain: queued=%d running=%d, want 0/0", q, r)
	}
	if int64(len(burst)) > jobs.Canceled.Load() {
		t.Errorf("only %d canceled; the %d gated burst jobs must all cancel on drain",
			jobs.Canceled.Load(), len(burst))
	}
	if got := jobs.Expired.Load(); got < 1 {
		t.Errorf("jobs_expired_total = %d, want >= 1 after the TTL sweep", got)
	}

	// Canceled jobs never deliver: neither the storm's raced cancels
	// nor the drain-canceled burst may appear in the webhook log, and
	// no job delivers twice.
	hookMu.Lock()
	defer hookMu.Unlock()
	for id, n := range delivered {
		if n > 1 {
			t.Errorf("job %s delivered %d times, want at most once", id, n)
		}
		if canceledObserved[id] {
			t.Errorf("job %s was observed canceled yet delivered its webhook", id)
		}
	}
	for _, id := range burst {
		if delivered[id] > 0 {
			t.Errorf("drain-canceled job %s delivered its webhook", id)
		}
	}

	// The injectors really fired.
	hits := fault.Hits()
	if hits[fault.SchedAcquire] == 0 || hits[fault.JobPersist] == 0 {
		t.Errorf("fault hits = %v, want both sched.acquire and job.persist exercised", hits)
	}
}
