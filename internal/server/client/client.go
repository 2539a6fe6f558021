// Package client is the producer side of the detection service: it speaks
// the wire protocol to a cdserver, with the retry discipline the service
// contract requires. Each Stream tracks the server-acknowledged op position;
// Submit frames a batch at that position and retransmits on 429 (honoring
// Retry-After with jittered exponential backoff) or transport failure until
// the server acks — so throttling and reconnects delay ops but never drop
// them. Open resynchronizes the position from the server, making resume
// after either side restarts automatic: already-ingested prefixes are
// skipped server-side via the frame sequence number.
//
// Server refusals come back as the shared typed sentinels — wire and host
// errors round-trip the connection, so errors.Is works identically in a
// remote producer and an in-process one:
//
//	errors.Is(err, wire.ErrUnauthorized)  bad/rotated token (not retried)
//	errors.Is(err, wire.ErrRateLimited)   tenant over budget (retried)
//	errors.Is(err, host.ErrOverloaded)    ingest queue full (retried)
//	errors.Is(err, host.ErrSessionClosed) session gone (not retried)
//	errors.Is(err, wire.ErrBadFrame)      protocol violation (not retried)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"cryptodrop/internal/host"
	"cryptodrop/internal/server/wire"
)

// Client is a handle on one cdserver as one tenant.
type Client struct {
	base  string // e.g. http://127.0.0.1:8080
	token string
	http  *http.Client

	// MaxAttempts bounds retries per Submit for retryable refusals
	// (rate limit, overload, transport). Default 10.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff when the server names no
	// Retry-After. Default 50ms.
	BaseBackoff time.Duration
}

// New returns a client for the server at base (scheme://host:port)
// authenticating with token. Connections are pooled aggressively: a load
// generator drives hundreds of concurrent streams through one Client.
func New(base, token string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{
		base:        base,
		token:       token,
		http:        &http.Client{Transport: tr},
		MaxAttempts: 10,
		BaseBackoff: 50 * time.Millisecond,
	}
}

// Stream is one session's producer: a position cursor plus the framing
// machinery. Safe for use from one goroutine; open one Stream per session.
type Stream struct {
	c       *Client
	session string

	mu  sync.Mutex
	pos int64 // server-acknowledged op position
}

// sentinelFor maps an ack's error code back to the shared typed sentinel.
func sentinelFor(code string) error {
	switch code {
	case wire.CodeUnauthorized:
		return wire.ErrUnauthorized
	case wire.CodeRateLimited:
		return wire.ErrRateLimited
	case wire.CodeOverloaded:
		return host.ErrOverloaded
	case wire.CodeClosed:
		return host.ErrSessionClosed
	case wire.CodeDraining:
		return host.ErrHostClosed
	case wire.CodeBadFrame, wire.CodeGap:
		return wire.ErrBadFrame
	default:
		return nil
	}
}

// retryable reports refusals Submit should wait out and retransmit.
func retryable(code string) bool {
	switch code {
	case wire.CodeRateLimited, wire.CodeOverloaded, wire.CodeDraining:
		return true
	}
	return false
}

// ackError converts a refusal ack to an error wrapping its sentinel.
func ackError(status int, ack wire.Ack) error {
	if sent := sentinelFor(ack.Code); sent != nil {
		return fmt.Errorf("client: server refused (HTTP %d): %w: %s", status, sent, ack.Error)
	}
	return fmt.Errorf("client: server refused (HTTP %d): %s", status, ack.Error)
}

// do runs one request and decodes the ack.
func (c *Client) do(req *http.Request) (int, wire.Ack, error) {
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, wire.Ack{}, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	var ack wire.Ack
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ack); err != nil {
		return resp.StatusCode, wire.Ack{}, fmt.Errorf("client: HTTP %d with undecodable ack: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, ack, nil
}

// Open returns a Stream for session, resynchronized to the server's
// acknowledged position (0 for a new session; the restored position after a
// server restart). The server materializes the session on first contact.
func (c *Client) Open(ctx context.Context, session string) (*Stream, error) {
	s := &Stream{c: c, session: session}
	ack, err := s.query(ctx)
	if err != nil {
		return nil, err
	}
	s.pos = ack.Accepted
	return s, nil
}

// query fetches the server-side ack for the stream's session.
func (s *Stream) query(ctx context.Context) (wire.Ack, error) {
	u := s.c.base + "/v1/session?session=" + url.QueryEscape(s.session)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return wire.Ack{}, err
	}
	status, ack, err := s.c.do(req)
	if err != nil {
		return wire.Ack{}, err
	}
	if status != http.StatusOK {
		return ack, ackError(status, ack)
	}
	return ack, nil
}

// Position returns the server-acknowledged op position.
func (s *Stream) Position() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

// Submit streams ops to the session, retrying refusals until the server
// acknowledges them all or ctx expires. On a 429 the wait is the server's
// Retry-After hint (capped at 5s), otherwise jittered exponential backoff;
// each retransmit is framed at the acknowledged position, so the server
// skips any prefix admitted before a mid-stream refusal. Non-retryable
// refusals (auth, closed session, protocol violation) return immediately
// with their typed sentinel.
func (s *Stream) Submit(ctx context.Context, ops ...host.Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(ops) == 0 {
		return nil
	}
	backoff := s.c.BaseBackoff
	var lastErr error
	for attempt := 0; attempt < s.c.MaxAttempts; attempt++ {
		status, ack, err := s.post(ctx, ops)
		if err != nil {
			// Transport failure: the server's admission ledger is the truth
			// now; resync before retransmitting so we re-frame correctly.
			lastErr = err
			if ctx.Err() != nil {
				return fmt.Errorf("client: submit %q: %w", s.session, ctx.Err())
			}
			if ack, qerr := s.query(ctx); qerr == nil {
				s.advance(ack.Accepted, &ops)
			}
		} else if status == http.StatusOK {
			s.advance(ack.Accepted, &ops)
			if len(ops) == 0 {
				return nil
			}
			lastErr = fmt.Errorf("client: server acked %d short of batch end", ack.Accepted)
		} else {
			s.advance(ack.Accepted, &ops)
			if !retryable(ack.Code) {
				return ackError(status, ack)
			}
			lastErr = ackError(status, ack)
			if ms := ack.RetryAfterMs; ms > 0 {
				backoff = time.Duration(ms) * time.Millisecond
			}
		}
		if len(ops) == 0 {
			return nil
		}
		wait := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		if wait > 5*time.Second {
			wait = 5 * time.Second
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: submit %q: %w", s.session, ctx.Err())
		case <-time.After(wait):
		}
		backoff *= 2
	}
	return fmt.Errorf("client: submit %q: gave up after %d attempts: %w", s.session, s.c.MaxAttempts, lastErr)
}

// advance moves the cursor to acked and trims the acknowledged prefix of
// the pending batch. Callers hold s.mu.
func (s *Stream) advance(acked int64, ops *[]host.Op) {
	if acked <= s.pos {
		return
	}
	n := acked - s.pos
	s.pos = acked
	if n >= int64(len(*ops)) {
		*ops = nil
		return
	}
	*ops = (*ops)[n:]
}

// post sends one framed batch at the current position. The frame is sized
// before it is encoded, so the body is one allocation past the header.
func (s *Stream) post(ctx context.Context, ops []host.Op) (int, wire.Ack, error) {
	buf := wire.AppendFrame(wire.AppendHeader(nil, s.session), s.pos, ops)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.c.base+"/v1/ingest", bytes.NewReader(buf))
	if err != nil {
		return 0, wire.Ack{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return s.c.do(req)
}

// Flush blocks until every submitted op has been applied by the engine —
// the remote analogue of Session.Flush.
func (s *Stream) Flush(ctx context.Context) (wire.Ack, error) {
	u := s.c.base + "/v1/flush?session=" + url.QueryEscape(s.session)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return wire.Ack{}, err
	}
	status, ack, err := s.c.do(req)
	if err != nil {
		return wire.Ack{}, err
	}
	if status != http.StatusOK {
		return ack, ackError(status, ack)
	}
	return ack, nil
}
