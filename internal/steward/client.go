package steward

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"tornado/internal/archive"
	"tornado/internal/fedstore"
	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/obs"
)

// Errors surfaced by the client, mapped from the site API's status codes.
var (
	// ErrNotFound mirrors archive.ErrNotFound across the wire.
	ErrNotFound = archive.ErrNotFound
	// ErrExists mirrors archive.ErrExists across the wire.
	ErrExists = archive.ErrExists
	// ErrDataLoss mirrors archive.ErrDataLoss across the wire.
	ErrDataLoss = archive.ErrDataLoss
	// ErrUnavailable wraps transport failures and 502/503/504 responses that
	// persist after the retry budget: the site is down or unreachable, not
	// merely missing an object. It is the federation's site-down class — a
	// fedstore.Store marks the site down on it instead of failing the call.
	ErrUnavailable = fedstore.ErrSiteDown
)

// Client option defaults.
const (
	// DefaultRequestTimeout is the per-attempt deadline.
	DefaultRequestTimeout = 10 * time.Second
	// DefaultMaxAttempts is the total number of tries per request
	// (the first attempt plus retries).
	DefaultMaxAttempts = 3
	// DefaultBaseBackoff is the delay before the first retry; it doubles
	// per attempt up to DefaultMaxBackoff, with ±50% jitter.
	DefaultBaseBackoff = 50 * time.Millisecond
	// DefaultMaxBackoff caps the exponential backoff.
	DefaultMaxBackoff = 2 * time.Second
)

// ClientOptions tunes a site client. The zero value gets the Default*
// constants (normalize(), the package option idiom).
type ClientOptions struct {
	// HTTPClient performs the requests; nil means http.DefaultClient.
	HTTPClient *http.Client
	// RequestTimeout bounds each attempt (not the whole retried call).
	RequestTimeout time.Duration
	// MaxAttempts is the total tries per request: 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the pre-jitter delay before the first retry;
	// subsequent retries double it up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth.
	MaxBackoff time.Duration
	// Metrics receives client.requests / client.retries / client.failures
	// counters and the client.latency histogram; nil creates a private
	// registry (reachable via Client.Metrics).
	Metrics *obs.Registry
}

func (o ClientOptions) normalize() ClientOptions {
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = DefaultBaseBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// Client is a typed, context-first client for one stewarding site, and the
// remote fedstore.Site: a federation of Clients runs the same store as one of
// in-process archives. Each request carries a per-attempt deadline and is
// retried with bounded exponential backoff and jitter on transport errors
// and 502/503/504 — never on 4xx or 500, which are the site's own answers.
type Client struct {
	base    *url.URL
	baseErr error // deferred NewClientWithOptions parse failure, reported per call
	opts    ClientOptions
}

var _ fedstore.Site = (*Client)(nil)

// NewClientWithOptions returns a client for the site at baseURL with
// explicit timeout/retry/metrics configuration; zero fields take the
// defaults (http.DefaultClient, DefaultRequestTimeout, ...).
func NewClientWithOptions(baseURL string, opts ClientOptions) *Client {
	c := &Client{opts: opts.normalize()}
	c.base, c.baseErr = url.Parse(strings.TrimSuffix(baseURL, "/"))
	return c
}

// BaseURL returns the site's base URL string.
func (c *Client) BaseURL() string {
	if c.base == nil {
		return ""
	}
	return c.base.String()
}

// Metrics returns the client's metric registry.
func (c *Client) Metrics() *obs.Registry { return c.opts.Metrics }

// endpoint builds the request URL from path segments and query values —
// url.JoinPath plus url.Values, never string concatenation, so hostile
// object names ("50%", "a?b", names with spaces) round-trip.
func (c *Client) endpoint(query url.Values, segments ...string) string {
	u := c.base.JoinPath(segments...)
	if len(query) > 0 {
		u.RawQuery = query.Encode()
	}
	return u.String()
}

// backoff returns the pre-attempt delay: base·2^(attempt−1) capped at max,
// jittered to 50–150% so synchronized clients spread out.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BaseBackoff << (attempt - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

func (c *Client) do(ctx context.Context, method string, query url.Values, body []byte, segments ...string) ([]byte, error) {
	if c.baseErr != nil {
		return nil, fmt.Errorf("steward: bad base URL: %w", c.baseErr)
	}
	m := c.opts.Metrics
	m.Counter("client.requests").Inc()
	start := time.Now()
	defer func() { m.Histogram("client.latency").Observe(time.Since(start)) }()

	target := c.endpoint(query, segments...)
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			m.Counter("client.retries").Inc()
			select {
			case <-time.After(c.backoff(attempt - 1)):
			case <-ctx.Done():
				m.Counter("client.failures").Inc()
				return nil, ctx.Err()
			}
		}
		data, status, err := c.attempt(ctx, method, target, body)
		if err == nil && status < 300 {
			return data, nil
		}
		if err == nil && status <= http.StatusInternalServerError {
			// A definitive site answer: map it, never retry. A 500 is one
			// too — the site ran the request and its store refused (a dead
			// home device, too degraded to write) — so it is an error about
			// the request, never ErrUnavailable.
			m.Counter("client.failures").Inc()
			return nil, mapStatus(method, target, status, data)
		}
		// Transport error, or a 502/503/504 from in front of the site.
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("%s %s: HTTP %d: %s", method, target, status, bytes.TrimSpace(data))
		}
		if ctx.Err() != nil {
			m.Counter("client.failures").Inc()
			return nil, ctx.Err()
		}
	}
	m.Counter("client.failures").Inc()
	return nil, fmt.Errorf("%w: %v (after %d attempts)", ErrUnavailable, lastErr, c.opts.MaxAttempts)
}

// attempt performs one HTTP round trip under the per-attempt deadline.
func (c *Client) attempt(ctx context.Context, method, target string, body []byte) (data []byte, status int, err error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, target, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return data, resp.StatusCode, nil
}

// mapStatus translates the site API's definitive error statuses into the
// shared archive error values.
func mapStatus(method, target string, status int, body []byte) error {
	msg := bytes.TrimSpace(body)
	switch status {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, msg)
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", ErrExists, msg)
	case http.StatusGone:
		return fmt.Errorf("%w: %s", ErrDataLoss, msg)
	default:
		return fmt.Errorf("steward: %s %s: HTTP %d: %s", method, target, status, msg)
	}
}

// nameSegments splits a path-like object name into its segments and
// percent-escapes each one, so hostile characters ("%", "?", "#", spaces)
// round-trip and the server's wildcard route reassembles the name.
// url.JoinPath treats its elements as already-escaped path, so escaping
// here is load-bearing: a raw "%" would otherwise invalidate the URL.
func nameSegments(prefix, name string) []string {
	segs := []string{prefix}
	for _, s := range strings.Split(name, "/") {
		segs = append(segs, url.PathEscape(s))
	}
	return segs
}

func blockQuery(stripe, node int) url.Values {
	return url.Values{
		"stripe": []string{strconv.Itoa(stripe)},
		"node":   []string{strconv.Itoa(node)},
	}
}

// Put uploads an object.
func (c *Client) Put(ctx context.Context, name string, data []byte) error {
	_, err := c.do(ctx, http.MethodPut, nil, data, nameSegments("objects", name)...)
	return err
}

// Get downloads an object, reconstructing at the site if needed.
func (c *Client) Get(ctx context.Context, name string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, nil, nil, nameSegments("objects", name)...)
}

// Delete removes an object.
func (c *Client) Delete(ctx context.Context, name string) error {
	_, err := c.do(ctx, http.MethodDelete, nil, nil, nameSegments("objects", name)...)
	return err
}

// doJSON decodes the JSON answer of one body-less site API request into v.
func (c *Client) doJSON(ctx context.Context, method string, v any, segments ...string) error {
	data, err := c.do(ctx, method, nil, nil, segments...)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("steward: %s decode: %w", segments[0], err)
	}
	return nil
}

// Stat fetches an object's metadata.
func (c *Client) Stat(ctx context.Context, name string) (obj archive.Object, err error) {
	err = c.doJSON(ctx, http.MethodGet, &obj, nameSegments("stat", name)...)
	return obj, err
}

// List fetches the site's object listing.
func (c *Client) List(ctx context.Context) (objs []archive.Object, err error) {
	err = c.doJSON(ctx, http.MethodGet, &objs, "list")
	return objs, err
}

// Layout fetches the site's striping parameters.
func (c *Client) Layout(ctx context.Context) (lay archive.StripeLayout, err error) {
	err = c.doJSON(ctx, http.MethodGet, &lay, "layout")
	return lay, err
}

// Graph fetches the site's erasure graph (GraphML over the wire).
func (c *Client) Graph(ctx context.Context) (*graph.Graph, error) {
	data, err := c.do(ctx, http.MethodGet, nil, nil, "graph")
	if err != nil {
		return nil, err
	}
	return graphml.Decode(bytes.NewReader(data))
}

// ReadBlock fetches one verified block; missing, rotted, and out-of-range
// blocks all report ErrNotFound. dst is ignored: the block is the response
// body, a slice of the caller's own.
func (c *Client) ReadBlock(ctx context.Context, name string, stripe, node int, _ []byte) ([]byte, error) {
	return c.do(ctx, http.MethodGet, blockQuery(stripe, node), nil, nameSegments("blocks", name)...)
}

// WriteBlock restores one block to its home device at the site.
func (c *Client) WriteBlock(ctx context.Context, name string, stripe, node int, payload []byte) error {
	_, err := c.do(ctx, http.MethodPut, blockQuery(stripe, node), payload, nameSegments("blocks", name)...)
	return err
}

// PutShell registers object metadata at the site without uploading data
// (blocks follow via WriteBlock).
func (c *Client) PutShell(ctx context.Context, name string, size, stripes int) error {
	q := url.Values{
		"size":    []string{strconv.Itoa(size)},
		"stripes": []string{strconv.Itoa(stripes)},
	}
	_, err := c.do(ctx, http.MethodPost, q, nil, nameSegments("shell", name)...)
	return err
}

// Scrub runs a scrub at the site and returns its report: the repairing
// POST /scrub, or with repair false the non-mutating GET /health.
func (c *Client) Scrub(ctx context.Context, repair bool) (rep archive.ScrubReport, err error) {
	method, path := http.MethodGet, "health"
	if repair {
		method, path = http.MethodPost, "scrub"
	}
	err = c.doJSON(ctx, method, &rep, path)
	return rep, err
}

// RepairFrom is the remote form of archive.Store.RepairFrom, driven from this
// side of the wire: a repairing scrub at the site; then one donor call for
// each stripe it left unrecoverable, whose data blocks are written home; then
// a second repairing scrub, in which the site re-encodes its own checks from
// them. Only data blocks cross the wire. (The in-process pass asks donor just
// for the blocks peeling could not reach; this one cannot see the peel, so a
// stripe lacks every node the scrub missed and did not rebuild. Nor can it see
// which drives answer, so every lacking data block is offered as one the site
// can store: a donor may fetch one a dead drive then refuses.)
func (c *Client) RepairFrom(ctx context.Context, donor archive.Donor) (archive.DonorReport, error) {
	first, err := c.Scrub(ctx, true)
	rep := archive.DonorReport{ScrubReport: first, BlocksLocal: first.BlocksRepaired}
	if err != nil || donor == nil || first.Unrecoverable == 0 {
		return rep, err
	}
	lay, err := c.Layout(ctx)
	if err != nil {
		return rep, err
	}
	blocks := make([][]byte, lay.NodesPerStripe)
	for _, h := range first.Stripes {
		if h.Recoverable {
			continue
		}
		clear(blocks)
		lacking := slices.DeleteFunc(slices.Clone(h.Missing), func(node int) bool { return slices.Contains(h.Repaired, node) })
		for _, node := range lacking {
			if node < lay.DataNodes {
				blocks[node] = []byte{} // storable, for all this side knows; no buffer to lend
			}
		}
		if err := donor(ctx, h.Object, h.Stripe, lacking, blocks); err != nil {
			return rep, err
		}
		for _, node := range lacking {
			if len(blocks[node]) == 0 {
				continue
			}
			if err := c.WriteBlock(ctx, h.Object, h.Stripe, node, blocks[node]); err == nil {
				rep.BlocksImported++
			} else if ctx.Err() != nil || IsUnavailable(err) {
				return rep, err
			} // else the home device refused it; a later pass retries
		}
	}
	if rep.BlocksImported == 0 {
		return rep, nil
	}
	rep.ScrubReport, err = c.Scrub(ctx, true)
	return rep, err
}

// IsUnavailable reports whether err means the site itself is down or
// unreachable (as opposed to a definitive answer about an object).
func IsUnavailable(err error) bool { return errors.Is(err, ErrUnavailable) }
