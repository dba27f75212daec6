package stream

import (
	"fmt"
	"sync"
	"testing"
)

func TestHubPublishSubscribeTopicFilter(t *testing.T) {
	h := NewHub(64)
	sub := h.Subscribe("a", 16)
	defer sub.Close()

	h.Publish("a", "x", []byte("1"))
	h.Publish("b", "x", []byte("2"))
	h.Publish("a", "y", []byte("3"))

	got := drain(sub)
	if len(got) != 2 {
		t.Fatalf("topic-filtered subscriber got %d events, want 2: %+v", len(got), got)
	}
	if got[0].Type != "x" || string(got[0].Data) != "1" || got[1].Type != "y" || string(got[1].Data) != "3" {
		t.Fatalf("unexpected events: %+v", got)
	}
	if got[0].ID >= got[1].ID {
		t.Fatalf("event IDs not increasing: %d then %d", got[0].ID, got[1].ID)
	}
}

func TestHubReplayAfterCursor(t *testing.T) {
	h := NewHub(64)
	for i := 1; i <= 10; i++ {
		h.Publish("c1", "ev", []byte{byte(i)})
	}
	evs := h.Replay("c1", 5)
	if len(evs) != 5 {
		t.Fatalf("replay after 5 returned %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.ID != want {
			t.Fatalf("replay[%d].ID = %d, want %d", i, ev.ID, want)
		}
	}
	if got := h.Replay("other", 0); len(got) != 0 {
		t.Fatalf("replay of unused topic returned %d events", len(got))
	}
}

func TestHubReplayRingEviction(t *testing.T) {
	h := NewHub(8)
	for i := 0; i < 20; i++ {
		h.Publish("t", "ev", nil)
	}
	evs := h.Replay("t", 0)
	if len(evs) != 8 {
		t.Fatalf("ring of 8 retained %d events", len(evs))
	}
	if evs[0].ID != 13 || evs[len(evs)-1].ID != 20 {
		t.Fatalf("retained window [%d, %d], want [13, 20]", evs[0].ID, evs[len(evs)-1].ID)
	}
}

func TestSubscriberClose(t *testing.T) {
	h := NewHub(16)
	s1 := h.Subscribe("", 4)
	s2 := h.Subscribe("", 4)
	if _, _, n := h.Stats(); n != 2 {
		t.Fatalf("subscribers = %d, want 2", n)
	}
	s1.Close()
	s1.Close() // idempotent
	if _, _, n := h.Stats(); n != 1 {
		t.Fatalf("subscribers after close = %d, want 1", n)
	}
	h.Publish("t", "ev", nil)
	if got := drain(s2); len(got) != 1 {
		t.Fatalf("surviving subscriber got %d events, want 1", len(got))
	}
	s2.Close()
}

func TestNilHubIsSafe(t *testing.T) {
	var h *Hub
	if id := h.Publish("t", "ev", nil); id != 0 {
		t.Fatalf("nil hub Publish returned %d", id)
	}
	if evs := h.Replay("", 0); evs != nil {
		t.Fatalf("nil hub Replay returned %v", evs)
	}
	if id := h.LastID(); id != 0 {
		t.Fatalf("nil hub LastID returned %d", id)
	}
}

// TestHubStalledSubscriberShedsLoad is the backpressure contract under
// -race: N concurrent publishers fan out to healthy subscribers and one
// deliberately stalled subscriber (buffer 1, never drained). Publishers
// must never block, healthy subscribers must see every event exactly
// once in ID order, and the stalled subscriber's drop counter must
// prove the shed load.
func TestHubStalledSubscriberShedsLoad(t *testing.T) {
	const (
		publishers = 4
		perPub     = 500
		total      = publishers * perPub
	)
	h := NewHub(64) // much smaller than total: eviction happens live
	stalled := h.Subscribe("", 1)
	defer stalled.Close()

	healthy := make([]*Subscriber, 2)
	results := make([]struct {
		n       int
		ordered bool
	}, len(healthy))
	var consumers sync.WaitGroup
	for i := range healthy {
		healthy[i] = h.Subscribe("", total)
		consumers.Add(1)
		go func(s *Subscriber, slot int) {
			defer consumers.Done()
			var last uint64
			ordered := true
			n := 0
			for ev := range s.Events() {
				if ev.ID <= last {
					ordered = false
				}
				last = ev.ID
				n++
				if n == total {
					break
				}
			}
			results[slot].n = n
			results[slot].ordered = ordered
		}(healthy[i], i)
	}

	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < perPub; i++ {
				h.Publish("load", "ev", []byte(fmt.Sprintf("%d/%d", p, i)))
			}
		}(p)
	}
	pubs.Wait()
	consumers.Wait()
	for i := range healthy {
		healthy[i].Close()
	}

	for i, r := range results {
		if r.n != total {
			t.Fatalf("healthy subscriber %d received %d/%d events", i, r.n, total)
		}
		if !r.ordered {
			t.Fatalf("healthy subscriber %d saw non-increasing event IDs", i)
		}
	}
	// The stalled subscriber holds at most its buffer; everything else
	// must have been dropped, not blocked on.
	if got := stalled.dropped.Load(); got < total-1 {
		t.Fatalf("stalled subscriber dropped %d events, want >= %d", got, total-1)
	}
	published, dropped, _ := h.Stats()
	if published != total {
		t.Fatalf("hub published %d, want %d", published, total)
	}
	if dropped < total-1 {
		t.Fatalf("hub-wide drop counter %d, want >= %d", dropped, total-1)
	}
}

// drain empties whatever is currently buffered on s.
func drain(s *Subscriber) []*Event {
	var out []*Event
	for {
		select {
		case ev := <-s.Events():
			out = append(out, ev)
		default:
			return out
		}
	}
}
