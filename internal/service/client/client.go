// Package client is the typed Go client of the slipsimd HTTP API
// (wire types: internal/service/api). It is used by the service tests,
// the gateway's replica fan-out, perfbench's serving workload, and
// `slipsim -server`, which round-trips a CLI run through a daemon and
// prints the byte-identical result.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"slipstream/internal/core"
	"slipstream/internal/runspec"
	"slipstream/internal/service/api"
)

// Client talks to one slipsimd daemon or gateway.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8056".
	Base string
	// HTTPClient overrides the transport; nil selects http.DefaultClient.
	HTTPClient *http.Client
}

// New returns a client for the daemon at base (trailing slash optional).
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

// APIError is a non-2xx daemon response: the status code, the server's
// machine-readable error code (api.Code*), its error message, and the
// Retry-After hint (seconds) when the server sent one (backpressure
// rejections do).
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("slipsimd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// ErrMalformed is wrapped by the error a 200 answer gets when it decodes
// but does not fit its request: arrays that do not align with the specs,
// or, for SubmitRaw, a result that is not a JSON object. The server
// answered, so it is reachable; what it sent is wrong.
var ErrMalformed = errors.New("client: malformed response")

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Submit posts one RunRequest and waits for every result. It makes one
// attempt: a rejection, backpressure included, is returned as an
// *APIError carrying the server's Retry-After hint for the caller to act
// on. The returned response aligns with the request's specs; the string
// is the response's X-Slipsim-Cache disposition.
func (c *Client) Submit(ctx context.Context, req api.RunRequest) (*api.RunResponse, string, error) {
	var resp api.RunResponse
	disp, err := c.post(ctx, req, &resp)
	if err != nil {
		return nil, "", err
	}
	if err := aligned(len(resp.Results), len(resp.Cached), len(req.Specs)); err != nil {
		return nil, "", err
	}
	return &resp, disp, nil
}

// SubmitRaw is Submit with each result left as the JSON the server sent,
// for a caller that passes results on rather than reading them (the
// gateway). Each result must be a JSON object; a response with any other
// result is an error wrapping ErrMalformed.
func (c *Client) SubmitRaw(ctx context.Context, req api.RunRequest) (*api.RawRunResponse, string, error) {
	var resp api.RawRunResponse
	disp, err := c.post(ctx, req, &resp)
	if err != nil {
		return nil, "", err
	}
	if err := aligned(len(resp.Results), len(resp.Cached), len(req.Specs)); err != nil {
		return nil, "", err
	}
	for i, res := range resp.Results {
		if len(res) == 0 || res[0] != '{' {
			return nil, "", fmt.Errorf("%w: result %d is not a JSON object", ErrMalformed, i)
		}
	}
	return &resp, disp, nil
}

// post sends req to the run endpoint and decodes a 200 answer into resp,
// returning its X-Slipsim-Cache disposition. Any other status is an
// *APIError.
func (c *Client) post(ctx context.Context, req api.RunRequest, resp any) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("client: encoding request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+api.PathRun, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return "", err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return "", decodeAPIError(httpResp)
	}
	if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
		return "", fmt.Errorf("client: decoding response: %w", err)
	}
	return httpResp.Header.Get(api.CacheHeader), nil
}

// aligned checks that a response's arrays align with the request's
// specs: callers (the gateway fan-in above all) index them positionally,
// so a short array from a misbehaving server must be an error here, not a
// panic there.
func aligned(results, cached, specs int) error {
	if results != specs || cached != specs {
		return fmt.Errorf("%w: misaligned: %d results, %d cached for %d specs",
			ErrMalformed, results, cached, specs)
	}
	return nil
}

// RunBatch submits a spec batch and waits for every result. The returned
// response aligns with specs; cache is the response's X-Slipsim-Cache
// disposition ("hit", "miss", or "partial").
func (c *Client) RunBatch(ctx context.Context, specs []runspec.RunSpec) (*api.RunResponse, string, error) {
	return c.Submit(ctx, api.RunRequest{Specs: specs})
}

// Run submits one spec and returns its result, plus whether it was
// served without simulating (api.RunResponse.Cached) rather than by a
// fresh or coalesced simulation.
func (c *Client) Run(ctx context.Context, spec runspec.RunSpec) (*core.Result, bool, error) {
	resp, _, err := c.RunBatch(ctx, []runspec.RunSpec{spec})
	if err != nil {
		return nil, false, err
	}
	return resp.Results[0], resp.Cached[0], nil
}

// Health fetches the daemon's liveness and job counts.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if err := c.getJSON(ctx, api.PathHealthz, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Metrics fetches the daemon's deterministic text metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+api.PathMetrics, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeAPIError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfter = n
	}
	var body api.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		apiErr.Message = body.Error
		apiErr.Code = body.Code
	} else {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	return apiErr
}
