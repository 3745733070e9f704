package testnet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"tota/internal/retry"
)

// Client is the harness's resilient HTTP poller for node observability
// endpoints: every request has a hard timeout, a bounded retry budget
// and exponential backoff with seeded jitter, because the node on the
// other end may be mid-restart, SIGSTOPped or drowning in relay loss —
// transient refusal is the expected case, not the exception. The
// schedule itself lives in internal/retry, shared with the gateway RPC
// client.
type Client struct {
	// Policy is the retry/backoff budget (retry.New defaults: 4
	// attempts, 50ms doubling to 1s, seeded jitter).
	Policy *retry.Policy

	http *http.Client
}

// NewClient builds a poll client whose backoff jitter derives from
// seed (the manifest seed, so poll schedules reproduce too).
func NewClient(seed int64) *Client {
	return &Client{
		Policy: retry.New(seed),
		http:   &http.Client{Timeout: 2 * time.Second},
	}
}

// ReadyStatus mirrors the /readyz payload (obs.Readiness plus the
// ready bit and per-scrape deltas).
type ReadyStatus struct {
	Ready           bool  `json:"ready"`
	StoreSize       int   `json:"store_size"`
	Peers           int   `json:"peers"`
	Announced       int64 `json:"announced"`
	Suppressed      int64 `json:"suppressed"`
	AnnouncedDelta  int64 `json:"announced_delta"`
	SuppressedDelta int64 `json:"suppressed_delta"`
}

// get fetches url with the retry/backoff policy. A 503 from /readyz is
// a VALID response (not-ready with a diagnostic body), so any response
// with a body is returned; only transport-level failures retry.
func (c *Client) get(url string) ([]byte, int, error) {
	var body []byte
	var status int
	err := c.Policy.Do(func() error {
		resp, err := c.http.Get(url)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return err
		}
		body, status = b, resp.StatusCode
		return nil
	}, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("testnet: %s unreachable: %w", url, err)
	}
	return body, status, nil
}

// Ready polls /readyz. Both 200 and 503 decode; err is reserved for
// the node being unreachable outright.
func (c *Client) Ready(obsURL string) (ReadyStatus, error) {
	body, _, err := c.get(obsURL + "/readyz")
	if err != nil {
		return ReadyStatus{}, err
	}
	var rs ReadyStatus
	if err := json.Unmarshal(body, &rs); err != nil {
		return ReadyStatus{}, fmt.Errorf("testnet: bad /readyz payload: %w", err)
	}
	return rs, nil
}

// StoreEntries scrapes /store.json and reduces the NDJSON dump to
// canonical sorted entries — the external view compared against the
// oracle.
func (c *Client) StoreEntries(obsURL string) ([]Entry, error) {
	body, status, err := c.get(obsURL + "/store.json")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("testnet: /store.json returned HTTP %d", status)
	}
	return CanonicalizeStore(body)
}

// MetricsJSON scrapes /metrics.json raw (diagnostics payloads).
func (c *Client) MetricsJSON(obsURL string) ([]byte, error) {
	body, _, err := c.get(obsURL + "/metrics.json")
	return body, err
}

// storeTuple is the subset of the tuple JSON interchange form the
// canonicalizer needs; decoding it generically keeps the harness
// independent of the pattern registry.
type storeTuple struct {
	Kind    string `json:"kind"`
	Content []struct {
		Name  string          `json:"name"`
		Type  string          `json:"type"`
		Value json.RawMessage `json:"value"`
	} `json:"content"`
}

// CanonicalizeStore reduces a /store.json NDJSON body to sorted
// canonical entries: kind, "name" field, and the "_val" maintained
// value when present (non-finite floats travel as strings and are
// treated as absent — an unbounded scope is not a value).
func CanonicalizeStore(body []byte) ([]Entry, error) {
	var entries []Entry
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var st storeTuple
		if err := json.Unmarshal([]byte(line), &st); err != nil {
			return nil, fmt.Errorf("testnet: bad store line %q: %w", line, err)
		}
		e := Entry{Kind: st.Kind}
		for _, f := range st.Content {
			switch f.Name {
			case "name":
				_ = json.Unmarshal(f.Value, &e.Name)
			case "_val":
				var v float64
				if err := json.Unmarshal(f.Value, &v); err == nil {
					e.Val = v
					e.HasVal = true
				}
			}
		}
		entries = append(entries, e)
	}
	SortEntries(entries)
	return entries, nil
}
