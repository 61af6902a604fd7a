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
	b, disp, err := c.post(ctx, req)
	if err != nil {
		return nil, "", err
	}
	resp, err := api.DecodeRunResponse(b)
	if err != nil {
		return nil, "", fmt.Errorf("client: decoding response: %w", err)
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
	b, disp, err := c.post(ctx, req)
	if err != nil {
		return nil, "", err
	}
	var resp api.RawRunResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, "", fmt.Errorf("client: decoding response: %w", err)
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

// post sends req to the run endpoint and returns a 200 answer's body and
// its X-Slipsim-Cache disposition. Any other status is an *APIError.
func (c *Client) post(ctx context.Context, req api.RunRequest) ([]byte, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", fmt.Errorf("client: encoding request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+api.PathRun, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	b, header, err := c.do(httpReq)
	if err != nil {
		return nil, "", err
	}
	return b, header.Get(api.CacheHeader), nil
}

// maxPresize caps the buffer do sizes from Content-Length: a body that
// claims more grows past it only as its bytes arrive, so a bogus length
// is never allocated up front.
const maxPresize = 1 << 20

// do sends req and reads a 200 answer's body whole, into one buffer sized
// from its Content-Length. Any other status is an *APIError.
func (c *Client) do(req *http.Request) ([]byte, http.Header, error) {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, decodeAPIError(resp)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), maxPresize)+bytes.MinRead))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, fmt.Errorf("client: reading response: %w", err)
	}
	return buf.Bytes(), resp.Header, nil
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
	b, err := c.get(ctx, api.PathHealthz)
	if err != nil {
		return nil, err
	}
	var h api.Health
	if err := json.Unmarshal(b, &h); err != nil {
		return nil, fmt.Errorf("client: decoding health: %w", err)
	}
	return &h, nil
}

// Metrics fetches the daemon's deterministic text metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	b, err := c.get(ctx, api.PathMetrics)
	return string(b), err
}

func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	b, _, err := c.do(req)
	return b, err
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
