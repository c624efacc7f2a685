package segstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Wire protocol. Blobs live under /v1/segments/{name}; the state
// bundle under /v1/keydir as JSON (encoding/json base64s the byte
// fields). A blob request carries its Check in headers, so the side
// that stages the bytes — the server on PUT, the client on GET —
// verifies the stream against the key directory's own size and payload
// CRC before installing anything.
const (
	HeaderSize    = "X-Xarch-Size"
	HeaderDataOff = "X-Xarch-Data-Off"
	HeaderPayload = "X-Xarch-Payload"
	HeaderCRC     = "X-Xarch-Crc32"
)

// WireBundle is the JSON form of a state bundle on /v1/keydir.
// Generation and Versions are informational (derived from Keydir);
// clients re-derive them from the authoritative bytes.
type WireBundle struct {
	Generation string `json:"generation,omitempty"`
	Versions   int    `json:"versions,omitempty"`
	Keydir     []byte `json:"keydir"`
	Dict       []byte `json:"dict"`
	Meta       []byte `json:"meta"`
}

// CheckHeaders renders c into h.
func CheckHeaders(h http.Header, c Check) {
	h.Set(HeaderSize, strconv.FormatInt(c.Size, 10))
	h.Set(HeaderDataOff, strconv.FormatInt(c.DataOff, 10))
	h.Set(HeaderPayload, strconv.FormatInt(c.Payload, 10))
	h.Set(HeaderCRC, strconv.FormatUint(uint64(c.CRC), 16))
}

// ParseCheckHeaders reads a Check back out of h. It refuses a Check no blob
// can pass — a negative size, offset or payload, or a payload range that
// runs past the blob's end — so the server answers 400 before staging the
// body, instead of a 422 the client would retry forever.
func ParseCheckHeaders(h http.Header) (Check, error) {
	var c Check
	var err error
	get := func(name string) int64 {
		v, perr := strconv.ParseInt(h.Get(name), 10, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("segstore: bad %s header %q", name, h.Get(name))
		}
		return v
	}
	c.Size, c.DataOff, c.Payload = get(HeaderSize), get(HeaderDataOff), get(HeaderPayload)
	crc, perr := strconv.ParseUint(h.Get(HeaderCRC), 16, 32)
	if perr != nil && err == nil {
		err = fmt.Errorf("segstore: bad %s header %q", HeaderCRC, h.Get(HeaderCRC))
	}
	c.CRC = uint32(crc)
	if err == nil {
		err = c.validate()
	}
	return c, err
}

// HTTP is the remote Store: a client for the replication endpoints
// (xarch serve's source endpoints, or a standalone replica server).
// Every self-contained operation runs under the retry policy;
// streaming Get retries establishing the response, but a body that
// dies mid-stream surfaces to the caller (whose staging verify makes
// the whole transfer retryable).
type HTTP struct {
	base   string
	client *http.Client
	retry  RetryPolicy
}

// NewHTTP returns a Store against the server at base (scheme://host
// [:port], no trailing slash needed). A nil client uses a default with
// no global timeout — per-attempt bounds come from the retry policy.
func NewHTTP(base string, client *http.Client, retry RetryPolicy) *HTTP {
	if client == nil {
		client = &http.Client{}
	}
	return &HTTP{base: strings.TrimRight(base, "/"), client: client, retry: retry}
}

func (h *HTTP) url(path string) string { return h.base + path }

// httpError turns a non-2xx response into an error, transient for the
// server-side conditions a retry can outlast: 5xx, 429 (Retry-After
// honored as a backoff hint), and 422 (the server's staging verify
// failed — re-streaming sends fresh bytes).
func httpError(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	err := fmt.Errorf("segstore: %s: server answered %d: %.200s", op, resp.StatusCode, bytes.TrimSpace(body))
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		var hint time.Duration
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			hint = time.Duration(secs) * time.Second
		}
		return MarkTransient(err, hint)
	case resp.StatusCode >= 500, resp.StatusCode == http.StatusUnprocessableEntity:
		return MarkTransient(err, 0)
	}
	return err
}

// transportError classifies a client.Do failure: transient unless the
// caller's own context ended the request.
func transportError(ctx context.Context, op string, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("segstore: %s: %w", op, err)
	}
	return MarkTransient(fmt.Errorf("segstore: %s: %w", op, err), 0)
}

// drain discards and closes a response body so the connection is
// reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// Put uploads the blob with its Check in headers; the server stages,
// verifies and installs it. Each retry re-opens the source stream; a Check
// no blob can pass is refused before anything is sent.
func (h *HTTP) Put(ctx context.Context, name string, c Check, open func() (io.ReadCloser, error)) error {
	if !ValidBlobName(name) {
		return fmt.Errorf("segstore: invalid blob name %q", name)
	}
	if err := c.validate(); err != nil {
		return err
	}
	op := "put " + name
	return h.retry.Do(ctx, op, func(octx context.Context) error {
		rc, err := open()
		if err != nil {
			return err
		}
		defer rc.Close()
		req, err := http.NewRequestWithContext(octx, http.MethodPut, h.url("/v1/segments/"+name), rc)
		if err != nil {
			return err
		}
		req.ContentLength = c.Size
		CheckHeaders(req.Header, c)
		resp, err := h.client.Do(req)
		if err != nil {
			return transportError(octx, op, err)
		}
		defer drain(resp)
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusCreated {
			return httpError(op, resp)
		}
		return nil
	})
}

// Get opens the named blob for streaming. Establishing the response is
// retried; the returned body reads under the caller's context.
func (h *HTTP) Get(ctx context.Context, name string) (io.ReadCloser, int64, error) {
	if !ValidBlobName(name) {
		return nil, 0, fmt.Errorf("segstore: invalid blob name %q", name)
	}
	op := "get " + name
	var rc io.ReadCloser
	var size int64
	err := h.retry.Do(ctx, op, func(context.Context) error {
		// The caller's ctx, not the per-attempt one: the body outlives
		// this call and must not be killed by the attempt deadline.
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url("/v1/segments/"+name), nil)
		if err != nil {
			return err
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return transportError(ctx, op, err)
		}
		if resp.StatusCode == http.StatusNotFound {
			drain(resp)
			return fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		if resp.StatusCode != http.StatusOK {
			defer drain(resp)
			return httpError(op, resp)
		}
		rc, size = resp.Body, resp.ContentLength
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return rc, size, nil
}

// Has asks the server to verify the named blob against c (HEAD with
// Check headers): 204 means present and verified.
func (h *HTTP) Has(ctx context.Context, name string, c Check) (bool, error) {
	if !ValidBlobName(name) {
		return false, fmt.Errorf("segstore: invalid blob name %q", name)
	}
	op := "head " + name
	var has bool
	err := h.retry.Do(ctx, op, func(octx context.Context) error {
		req, err := http.NewRequestWithContext(octx, http.MethodHead, h.url("/v1/segments/"+name), nil)
		if err != nil {
			return err
		}
		CheckHeaders(req.Header, c)
		resp, err := h.client.Do(req)
		if err != nil {
			return transportError(octx, op, err)
		}
		defer drain(resp)
		switch resp.StatusCode {
		case http.StatusNoContent:
			has = true
		case http.StatusNotFound:
			has = false
		default:
			return httpError(op, resp)
		}
		return nil
	})
	return has, err
}

// List names the server's installed blobs.
func (h *HTTP) List(ctx context.Context) ([]string, error) {
	var names []string
	err := h.retry.Do(ctx, "list segments", func(octx context.Context) error {
		req, err := http.NewRequestWithContext(octx, http.MethodGet, h.url("/v1/segments"), nil)
		if err != nil {
			return err
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return transportError(octx, "list segments", err)
		}
		defer drain(resp)
		if resp.StatusCode != http.StatusOK {
			return httpError("list segments", resp)
		}
		var body struct {
			Segments []string `json:"segments"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&body); err != nil {
			return MarkTransient(fmt.Errorf("segstore: list segments: %w", err), 0)
		}
		names = body.Segments
		return nil
	})
	return names, err
}

// Delete removes the named blob on the server.
func (h *HTTP) Delete(ctx context.Context, name string) error {
	if !ValidBlobName(name) {
		return fmt.Errorf("segstore: invalid blob name %q", name)
	}
	op := "delete " + name
	return h.retry.Do(ctx, op, func(octx context.Context) error {
		req, err := http.NewRequestWithContext(octx, http.MethodDelete, h.url("/v1/segments/"+name), nil)
		if err != nil {
			return err
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return transportError(octx, op, err)
		}
		defer drain(resp)
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
			return httpError(op, resp)
		}
		return nil
	})
}

// Keydir fetches the committed state bundle; 404 means ErrNoKeydir.
func (h *HTTP) Keydir(ctx context.Context) (*Bundle, error) {
	var b *Bundle
	err := h.retry.Do(ctx, "get keydir", func(octx context.Context) error {
		req, err := http.NewRequestWithContext(octx, http.MethodGet, h.url("/v1/keydir"), nil)
		if err != nil {
			return err
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return transportError(octx, "get keydir", err)
		}
		defer drain(resp)
		if resp.StatusCode == http.StatusNotFound {
			return ErrNoKeydir
		}
		if resp.StatusCode != http.StatusOK {
			return httpError("get keydir", resp)
		}
		var wb WireBundle
		if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&wb); err != nil {
			return MarkTransient(fmt.Errorf("segstore: get keydir: %w", err), 0)
		}
		b = &Bundle{Keydir: wb.Keydir, Dict: wb.Dict, Meta: wb.Meta}
		return nil
	})
	return b, err
}

// CommitKeydir uploads the state bundle; the server installs it
// keydir-last. The upload is idempotent, so retries are safe.
func (h *HTTP) CommitKeydir(ctx context.Context, b *Bundle) error {
	if b == nil || len(b.Keydir) == 0 {
		return fmt.Errorf("segstore: refusing to commit an empty key directory")
	}
	payload, err := json.Marshal(WireBundle{Keydir: b.Keydir, Dict: b.Dict, Meta: b.Meta})
	if err != nil {
		return err
	}
	return h.retry.Do(ctx, "commit keydir", func(octx context.Context) error {
		req, err := http.NewRequestWithContext(octx, http.MethodPut, h.url("/v1/keydir"), bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := h.client.Do(req)
		if err != nil {
			return transportError(octx, "commit keydir", err)
		}
		defer drain(resp)
		if resp.StatusCode != http.StatusNoContent {
			return httpError("commit keydir", resp)
		}
		return nil
	})
}

var _ Store = (*HTTP)(nil)
var _ Store = (*Local)(nil)
