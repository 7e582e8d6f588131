// Package feed fans localization fixes out to streaming subscribers —
// the server-side hook that makes a fix observable the moment it is
// produced. spotfi-loadgen subscribes to measure end-to-end packet→fix
// latency and live accuracy.
//
// The fanout is bounded in both directions: at most MaxSubscribers
// concurrent streams, each with a fixed-depth buffer. A subscriber that
// cannot keep up is disconnected and counted rather than allowed to
// block the publisher or buffer without bound — the pipeline's latency
// must never depend on a debug client's read rate.
package feed

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"

	"spotfi/internal/obs"
)

// Fix is one localization result as streamed on /debug/fixes, one JSON
// object per line (ndjson).
type Fix struct {
	// MAC is the target device, as carried in the CSI reports.
	MAC string `json:"mac"`
	// X, Y are the estimated position in meters.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Confidence is the quality score in [0,1].
	Confidence float64 `json:"confidence"`
	// Mode is the degradation-ladder rung that produced the fix
	// (empty = full pipeline).
	Mode string `json:"mode,omitempty"`
	// CaptureNs is the sender timestamp (ns) of the newest CSI packet in
	// the burst; EmitNs is the server clock when the fix was published.
	// When the sender stamps wall-clock time (loadgen does), EmitNs −
	// CaptureNs is the end-to-end packet→fix latency.
	CaptureNs int64 `json:"capture_ns"`
	EmitNs    int64 `json:"emit_ns"`
	// APs is how many APs contributed reports to the fix.
	APs int `json:"aps"`
}

// Metrics holds the feed's instrumentation. All fields may be nil
// (obs metrics are nil-receiver no-ops).
type Metrics struct {
	// Published counts fixes offered to the fanout (whether or not any
	// subscriber was listening).
	Published *obs.Counter
	// DroppedSubs counts subscribers disconnected for falling behind.
	DroppedSubs *obs.Counter
	// RejectedSubs counts subscriptions refused at the concurrency cap.
	RejectedSubs *obs.Counter
	// Subscribers tracks the current stream count.
	Subscribers *obs.Gauge
}

// NewMetrics registers the spotfi_feed_* family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Published:    reg.Counter("spotfi_feed_published_total", "Fixes offered to the fix-feed fanout.", nil),
		DroppedSubs:  reg.Counter("spotfi_feed_dropped_subscribers_total", "Fix-feed subscribers disconnected for falling behind.", nil),
		RejectedSubs: reg.Counter("spotfi_feed_rejected_subscribers_total", "Fix-feed subscriptions refused at the concurrency cap.", nil),
		Subscribers:  reg.Gauge("spotfi_feed_subscribers", "Currently connected fix-feed subscribers.", nil),
	}
}

// Config parameterizes a Feed. Zero values take the defaults noted.
type Config struct {
	// Buffer is the per-subscriber channel depth (default 64): the burst
	// of fixes a subscriber may fall behind by before it is dropped.
	Buffer int
	// MaxSubscribers caps concurrent streams (default 16).
	MaxSubscribers int
	// Metrics receives instrumentation; nil records nothing.
	Metrics *Metrics
}

// Feed is a bounded-fanout fix publisher. Use New.
type Feed struct {
	cfg Config

	mu     sync.Mutex
	subs   map[*Subscriber]struct{}
	closed bool
}

// New returns a Feed with cfg (zero fields defaulted).
func New(cfg Config) *Feed {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 64
	}
	if cfg.MaxSubscribers <= 0 {
		cfg.MaxSubscribers = 16
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	return &Feed{cfg: cfg, subs: make(map[*Subscriber]struct{})}
}

// Subscriber is one stream of fixes. Receive from Fixes(); the channel
// closes when the subscriber is dropped for falling behind, the feed is
// closed, or Unsubscribe is called.
type Subscriber struct {
	ch      chan Fix
	dropped atomic.Bool
}

// Fixes returns the subscriber's receive channel.
func (s *Subscriber) Fixes() <-chan Fix { return s.ch }

// Dropped reports whether the feed disconnected this subscriber for
// falling behind (as opposed to a clean close).
func (s *Subscriber) Dropped() bool { return s.dropped.Load() }

// ErrTooManySubscribers is returned by Subscribe at the concurrency cap.
var ErrTooManySubscribers = errors.New("feed: subscriber cap reached")

// ErrClosed is returned by Subscribe after Close.
var ErrClosed = errors.New("feed: closed")

// Subscribe opens a new stream.
func (f *Feed) Subscribe() (*Subscriber, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if len(f.subs) >= f.cfg.MaxSubscribers {
		f.cfg.Metrics.RejectedSubs.Inc()
		return nil, ErrTooManySubscribers
	}
	s := &Subscriber{ch: make(chan Fix, f.cfg.Buffer)}
	f.subs[s] = struct{}{}
	f.cfg.Metrics.Subscribers.Inc()
	return s, nil
}

// Unsubscribe closes a stream. Safe to call more than once, and after
// the feed already dropped the subscriber.
func (f *Feed) Unsubscribe(s *Subscriber) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.subs[s]; !ok {
		return
	}
	delete(f.subs, s)
	close(s.ch)
	f.cfg.Metrics.Subscribers.Dec()
}

// Publish offers one fix to every subscriber without blocking: a
// subscriber whose buffer is full is disconnected (its channel closed)
// and counted. Channel sends and closes both happen under the feed
// mutex, so a send can never race a close.
func (f *Feed) Publish(fx Fix) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.cfg.Metrics.Published.Inc()
	for s := range f.subs {
		select {
		case s.ch <- fx:
		default:
			delete(f.subs, s)
			s.dropped.Store(true)
			close(s.ch)
			f.cfg.Metrics.DroppedSubs.Inc()
			f.cfg.Metrics.Subscribers.Dec()
		}
	}
}

// Close disconnects every subscriber and makes further Publish calls
// no-ops. Idempotent.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for s := range f.subs {
		delete(f.subs, s)
		close(s.ch)
		f.cfg.Metrics.Subscribers.Dec()
	}
}

// SubscriberCount returns the current number of streams.
func (f *Feed) SubscriberCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Handler streams fixes as JSON lines — mount it at /debug/fixes. The
// stream runs until the client disconnects, the subscriber falls behind
// (dropped), or the feed closes. The handler goroutine is the stream's
// only reader, so a disconnect tears the subscription down with it — no
// goroutine outlives the request.
func (f *Feed) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sub, err := f.Subscribe()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer f.Unsubscribe(sub)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		if fl != nil {
			fl.Flush() // commit headers so clients see the stream open
		}
		ctx := r.Context()
		var buf bytes.Buffer
		for {
			select {
			case <-ctx.Done():
				return
			case fx, ok := <-sub.Fixes():
				if !ok {
					return
				}
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(fx); err != nil {
					return
				}
				if _, err := w.Write(buf.Bytes()); err != nil {
					return
				}
				if fl != nil {
					fl.Flush()
				}
			}
		}
	})
}
