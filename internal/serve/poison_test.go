package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"mpress/internal/fabric"
	"mpress/internal/plan"
	"mpress/internal/runner"
	"mpress/internal/serve/api"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// TestPoisonedCachedPlanIsTypedError: any fleet peer may store a plan
// through PUT /v1/cache/{key}. One whose D2D stripe names a GPU the
// topology lacks used to panic the executor mid-request; the plan
// request must instead answer with a structured api.Error, and the
// daemon must stay healthy.
func TestPoisonedCachedPlanIsTypedError(t *testing.T) {
	tf := startFleet(t, 1, "e1")
	defer tf.shutdown(t)
	httpc := &http.Client{Transport: &http.Transport{}}
	defer httpc.CloseIdleConnections()

	// A plan for the smoke job plus a D2D stripe of one of its
	// activations to GPU 99 (a DGX-1 has eight).
	cfg := smokeConfigs(t)[0]
	j, err := runner.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res0 := runner.New(runner.Options{Workers: 1}).RunKeep(context.Background(), j)
	if res0.Err != nil {
		t.Fatal(res0.Err)
	}
	key := j.PlanKey()
	pl := res0.Report.Plan
	var victim tensor.ID = -1
	for id := range res0.State.Built.ActSlot {
		if victim < 0 || id < victim {
			victim = id
		}
	}
	pl.Act[victim] = plan.MechD2D
	pl.Parts[victim] = []fabric.Part{{Peer: 99, Bytes: units.MiB}}
	var body bytes.Buffer
	if err := pl.Save(&body, key); err != nil {
		t.Fatal(err)
	}

	put, err := http.NewRequest(http.MethodPut, tf.urls[0]+api.PathCache+"/"+url.PathEscape(key), &body)
	if err != nil {
		t.Fatal(err)
	}
	put.Header.Set(api.HeaderCacheVersion, tf.servers[0].fleet.Version())
	res, err := httpc.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cache PUT: status %d", res.StatusCode)
	}

	req, err := json.Marshal(api.PlanRequest{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err = httpc.Post(tf.urls[0]+api.PathPlan, "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatalf("plan request after poisoning: %v", err)
	}
	var apiErr api.Error
	decodeBody(t, res, &apiErr)
	if res.StatusCode != http.StatusUnprocessableEntity || apiErr.Status != res.StatusCode ||
		apiErr.Code != api.CodeJobFailed || !strings.Contains(apiErr.Message, "invalid plan") {
		t.Errorf("poisoned plan: status %d, error %+v", res.StatusCode, apiErr)
	}

	res, err = httpc.Get(tf.urls[0] + api.PathHealthz)
	if err != nil {
		t.Fatalf("healthz after poisoned plan: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("healthz after poisoned plan: status %d", res.StatusCode)
	}
}
