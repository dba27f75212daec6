// Package stream is the live-observability event bus: a bounded
// broadcast hub with never-blocking publish, plus the SSE wire codec
// behind safesensed's streaming endpoints.
//
// Design constraints (DESIGN.md §11):
//
//   - Publish never blocks and never waits on a subscriber, so a
//     producer adjacent to the //safesense:hotpath sim loop can publish
//     regardless of subscriber health. Event IDs come from one atomic
//     counter and the event lands in a fixed-size replay ring of atomic
//     pointers — no lock is taken on the publish path.
//   - Every subscriber owns a bounded buffer. A subscriber that stops
//     draining loses events: the hub counts the drops (per subscriber
//     and globally on /metrics) instead of applying backpressure.
//   - The replay ring is what makes SSE `Last-Event-ID` resume work: a
//     reconnecting client replays every retained event newer than its
//     cursor. Events older than the ring are gone for good; the client
//     detects the gap from the jump in event IDs.
package stream

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultRingSize is the replay-ring capacity when NewHub is given a
// non-positive size.
const DefaultRingSize = 1024

// DefaultSubscriberBuffer is the per-subscriber buffer capacity when
// Subscribe is given a non-positive size.
const DefaultSubscriberBuffer = 256

// Event is one published hub event. Events are immutable once
// published: neither the hub nor subscribers may mutate the fields, and
// the publisher must not reuse the Data slice afterwards.
type Event struct {
	ID    uint64 `json:"id"`
	Topic string `json:"topic"`
	Type  string `json:"type"`
	Data  []byte `json:"data,omitempty"`
}

// Hub is a bounded broadcast bus. The zero value is not usable; build
// one with NewHub. Publish and Replay are safe on a nil *Hub (no-ops),
// so optional wiring can skip nil checks.
type Hub struct {
	ring []atomic.Pointer[Event] // replay ring; len is a power of two
	mask uint64
	seq  atomic.Uint64 // last assigned event ID; IDs start at 1

	// subs is swapped copy-on-write under mu; Publish only loads it.
	mu   sync.Mutex
	subs atomic.Pointer[[]*Subscriber]

	// pubMu serializes Publish, so every subscriber receives events in
	// ID order even when several goroutines publish at once (a resumed
	// stream replays from the last ID its client saw).
	pubMu sync.Mutex

	dropped atomic.Uint64
}

// NewHub returns a hub whose replay ring retains at least ringSize
// events (rounded up to a power of two; non-positive means
// DefaultRingSize).
func NewHub(ringSize int) *Hub {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	n := 1
	for n < ringSize {
		n <<= 1
	}
	h := &Hub{ring: make([]atomic.Pointer[Event], n), mask: uint64(n - 1)}
	h.subs.Store(&[]*Subscriber{})
	return h
}

// Publish assigns the next event ID, retains the event in the replay
// ring, and offers it to every matching subscriber. It never blocks: a
// subscriber with a full buffer drops the event and its drop counter
// (plus safesense_stream_dropped_events_total) advances. Returns the
// assigned ID, or 0 on a nil hub.
func (h *Hub) Publish(topic, typ string, data []byte) uint64 {
	if h == nil {
		return 0
	}
	ev := &Event{Topic: topic, Type: typ, Data: data}
	h.pubMu.Lock()
	defer h.pubMu.Unlock()
	ev.ID = h.seq.Add(1)
	h.ring[(ev.ID-1)&h.mask].Store(ev)
	metricPublished.With().Inc()
	for _, s := range *h.subs.Load() {
		if s.topic != "" && s.topic != topic {
			continue
		}
		if s.closed.Load() {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			h.dropped.Add(1)
			metricDropped.With().Inc()
		}
	}
	return ev.ID
}

// PublishJSON publishes v's JSON encoding as one event. A value that
// does not marshal is dropped: the stream is observability, never the
// record. Like Publish it is a no-op on a nil hub, which skips the
// marshal too.
func (h *Hub) PublishJSON(topic, typ string, v any) {
	if h == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	h.Publish(topic, typ, data)
}

// LastID returns the most recently assigned event ID (0 before the
// first publish, or on a nil hub).
func (h *Hub) LastID() uint64 {
	if h == nil {
		return 0
	}
	return h.seq.Load()
}

// Replay returns the retained events with ID > after that match topic
// ("" matches all), oldest first. Events already evicted from the ring
// are not recoverable; callers see the loss as an ID gap.
func (h *Hub) Replay(topic string, after uint64) []*Event {
	if h == nil {
		return nil
	}
	latest := h.seq.Load()
	var out []*Event
	for i := range h.ring {
		ev := h.ring[i].Load()
		if ev == nil || ev.ID <= after || ev.ID > latest {
			continue
		}
		if topic != "" && ev.Topic != topic {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats reports the total events published, total events dropped across
// all subscribers, and the current subscriber count.
func (h *Hub) Stats() (published, dropped uint64, subscribers int) {
	if h == nil {
		return 0, 0, 0
	}
	return h.seq.Load(), h.dropped.Load(), len(*h.subs.Load())
}

// Subscriber is one bounded consumer of hub events. Receive from
// Events() promptly or lose events — the hub never blocks on you.
type Subscriber struct {
	hub     *Hub
	topic   string
	ch      chan *Event
	dropped atomic.Uint64
	closed  atomic.Bool
}

// Subscribe registers a consumer for topic ("" means every topic) with
// the given buffer capacity (non-positive means
// DefaultSubscriberBuffer). Only events published after registration
// are delivered; use Replay for history.
func (h *Hub) Subscribe(topic string, buffer int) *Subscriber {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	s := &Subscriber{hub: h, topic: topic, ch: make(chan *Event, buffer)}
	h.mu.Lock()
	old := *h.subs.Load()
	next := make([]*Subscriber, len(old), len(old)+1)
	copy(next, old)
	next = append(next, s)
	h.subs.Store(&next)
	h.mu.Unlock()
	metricSubscribers.With().Add(1)
	return s
}

// Events is the delivery channel. It is never closed: consumers stop by
// selecting on their own context and calling Close.
func (s *Subscriber) Events() <-chan *Event { return s.ch }

// Close unregisters the subscriber. Idempotent. The events channel is
// left open (a concurrent Publish may still hold the old subscriber
// list); buffered events become garbage with the Subscriber.
func (s *Subscriber) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	h := s.hub
	h.mu.Lock()
	old := *h.subs.Load()
	next := make([]*Subscriber, 0, len(old))
	for _, o := range old {
		if o != s {
			next = append(next, o)
		}
	}
	h.subs.Store(&next)
	h.mu.Unlock()
	metricSubscribers.With().Add(-1)
}
