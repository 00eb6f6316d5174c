package fleetd

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// digestFrames is how many telemetry frames each pinned stream reads.
const digestFrames = 400

// Absolute digests of the first digestFrames frames of each pinned
// stream, computed when fleetd built one scalar CAWOT per session. The
// streams are a pure function of the spec, the seed and the fleet
// geometry, so any drift in the served bytes — stepping, monitor,
// telemetry, merge order or wire encoding — moves them.
var wantTenantStreamDigest = map[string]string{
	"fresh/acme/jsonl":   "353e3599e1368e4595a1023e98c9acfc465d12680e05d95d6531d5b3d17a3b89",
	"fresh/acme/sse":     "db80992abaa5c41a439e8fd87979feb2fee9a8bb93ac54aed55f6dab5a59cd52",
	"restore/acme/jsonl": "53fc725c5f1bda241f9aa1064cc6db694ce4310902be9daf4feaba3cc0530578",
	"restore/zen/sse":    "60d9db986baca52776bd40828e362dec04c95c27357bc8e9d372ede3ae2b9381",
}

// pinnedStream is one telemetry subscriber of the digest test.
type pinnedStream struct {
	name   string // leg/tenant/framing, the digest key
	tenant string
	sse    bool
	resp   *http.Response
}

// subscribe opens the stream; the handler has registered the subscriber
// once the response headers arrive.
func (p *pinnedStream) subscribe(t *testing.T, ts *httptest.Server) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/tenants/"+p.tenant+"/telemetry", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	if p.resp, err = ts.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	if p.resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: telemetry = %d", p.name, p.resp.StatusCode)
	}
}

// digest reads the stream's first n frames — JSONL lines, or SSE data
// events with their blank separators — and returns the SHA-256 of the
// raw bytes.
func (p *pinnedStream) digest(n int) (string, error) {
	lines := n
	if p.sse {
		lines = 2 * n
	}
	rd := bufio.NewReader(p.resp.Body)
	h := sha256.New()
	for i := 0; i < lines; i++ {
		ln, err := rd.ReadBytes('\n')
		if err != nil {
			return "", fmt.Errorf("%s: stream ended after %d/%d lines: %v", p.name, i, lines, err)
		}
		if p.sse && (i%2 == 0) != bytes.HasPrefix(ln, []byte("data: {")) {
			return "", fmt.Errorf("%s: line %d %q breaks SSE framing", p.name, i, ln)
		}
		h.Write(ln)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// pinStreams subscribes every stream before the server starts (so each
// stream is whole from the fleet's first round), starts the server,
// reads the pinned frames of all streams concurrently, and checks each
// digest and that no subscriber dropped an event.
func pinStreams(t *testing.T, srv *Server, ts *httptest.Server, streams []*pinnedStream) {
	t.Helper()
	for _, p := range streams {
		p.subscribe(t, ts)
		defer p.resp.Body.Close()
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	got := make([]string, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, p := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = p.digest(digestFrames)
		}()
	}
	wg.Wait()
	if d := srv.fan.droppedTotal(); d != 0 {
		t.Errorf("%d stream drops; the pinned prefixes must be lossless", d)
	}
	for i, p := range streams {
		if errs[i] != nil {
			t.Error(errs[i])
			continue
		}
		if want := wantTenantStreamDigest[p.name]; got[i] != want {
			t.Errorf("%s digest %s, want %s", p.name, got[i], want)
		}
	}
}

// TestTenantStreamDigest pins fleetd's served bytes absolutely, end to
// end through the HTTP handler: one tenant of a fresh server, and two
// tenants of a server restored from a checked-in control-plane
// snapshot.
//
// testdata/server_snapshot_v2.bin was written by DrainToSnapshot of a
// testConfig() server running tenants acme and zen, at a time when
// fleetd built one scalar CAWOT per session. Restoring it keeps that
// contract: a v2 snapshot written by an earlier fleetd still restores,
// slot-exact and byte-identical. It is a compatibility fixture; do not
// regenerate it.
func TestTenantStreamDigest(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		cfg := testConfig()
		cfg.StreamBuffer = 1 << 16
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if code, body := request(t, ts, "", http.MethodPut, "/v1/tenants/acme",
			`{"patients":[0,2],"scenarios":[0,1],"mitigate":true}`); code != http.StatusCreated {
			t.Fatalf("PUT acme = %d (%s)", code, body)
		}
		pinStreams(t, srv, ts, []*pinnedStream{
			{name: "fresh/acme/jsonl", tenant: "acme"},
			{name: "fresh/acme/sse", tenant: "acme", sse: true},
		})
	})
	t.Run("restore", func(t *testing.T) {
		data, err := os.ReadFile("testdata/server_snapshot_v2.bin")
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.StreamBuffer = 1 << 16
		cfg.Restore = snap
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		pinStreams(t, srv, ts, []*pinnedStream{
			{name: "restore/acme/jsonl", tenant: "acme"},
			{name: "restore/zen/sse", tenant: "zen", sse: true},
		})
		if n, _ := srv.adm.Rejected(); n != 0 {
			t.Errorf("restore produced %d rejections", n)
		}
	})
}
