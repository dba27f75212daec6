package trace

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestIDsAreHexAndDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q: want 16 hex digits", id)
		}
		for _, c := range id {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				t.Fatalf("trace ID %q: non-hex digit %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("trace ID %q repeated within 1000 draws", id)
		}
		seen[id] = true
	}
}

func TestRootAndChildLinkage(t *testing.T) {
	st := NewStore(16)
	ctx, root := st.Root(context.Background(), "root", "")
	if root.TraceID() == "" || root.rec.SpanID == "" {
		t.Fatal("root span missing IDs")
	}
	if !root.Sampled() {
		t.Fatal("default sampler must keep everything")
	}

	ctx2, child := StartSpan(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Errorf("child trace = %q, want %q", child.TraceID(), root.TraceID())
	}
	_, grand := StartSpan(ctx2, "grandchild")
	grand.SetAttr("k", "v")
	grand.End()
	child.End()
	root.SetAttrInt("jobs", 42)
	root.End()

	recs := st.Trace(root.TraceID())
	if len(recs) != 3 {
		t.Fatalf("stored %d spans, want 3", len(recs))
	}
	// Spans flush on End, so the order is grandchild, child, root.
	if recs[0].Name != "grandchild" || recs[1].Name != "child" || recs[2].Name != "root" {
		t.Fatalf("unexpected span order: %q %q %q", recs[0].Name, recs[1].Name, recs[2].Name)
	}
	if recs[0].ParentID != recs[1].SpanID {
		t.Error("grandchild not parented to child")
	}
	if recs[1].ParentID != recs[2].SpanID {
		t.Error("child not parented to root")
	}
	if recs[2].ParentID != "" {
		t.Error("root must have no parent")
	}
	if len(recs[2].Attrs) != 1 || recs[2].Attrs[0].Key != "jobs" || recs[2].Attrs[0].Value != "42" {
		t.Errorf("root attrs = %+v", recs[2].Attrs)
	}
}

func TestHonorsCallerTraceID(t *testing.T) {
	st := NewStore(4)
	_, root := st.Root(context.Background(), "req", "demo")
	if root.TraceID() != "demo" {
		t.Fatalf("trace ID = %q, want demo", root.TraceID())
	}
	root.End()
	if got := st.Trace("demo"); len(got) != 1 {
		t.Fatalf("Trace(demo) = %d spans, want 1", len(got))
	}
}

func TestInertSpanWithoutParent(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "orphan")
	if span.TraceID() != "" || span.Sampled() {
		t.Fatal("span without traced parent must be inert")
	}
	// All methods must be safe no-ops.
	span.SetAttr("k", "v")
	if d := span.End(); d != 0 {
		t.Errorf("inert End = %v, want 0", d)
	}
	if got := FromContext(ctx); got != nil {
		t.Errorf("inert StartSpan must not install a span, got %+v", got)
	}
	if ID(ctx) != "" {
		t.Errorf("ID of untraced context = %q, want empty", ID(ctx))
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	st := NewStore(4)
	_, root := st.Root(context.Background(), "r", "")
	root.End()
	root.End()
	if len(st.Records()) != 1 {
		t.Fatalf("double End stored %d spans, want 1", len(st.Records()))
	}
}

// TestRingEvictionAndOrdering pins the satellite requirement: at
// capacity the store drops the oldest spans and Records stays ordered
// oldest-first.
func TestRingEvictionAndOrdering(t *testing.T) {
	const capacity = 4
	st := NewStore(capacity)
	for i := 0; i < 7; i++ {
		_, s := st.Root(context.Background(), fmt.Sprintf("span-%d", i), "")
		s.End()
	}
	if len(st.Records()) != capacity {
		t.Fatalf("Len = %d, want %d", len(st.Records()), capacity)
	}
	recs := st.Records()
	if len(recs) != capacity {
		t.Fatalf("Records = %d, want %d", len(recs), capacity)
	}
	for i, rec := range recs {
		want := fmt.Sprintf("span-%d", 7-capacity+i)
		if rec.Name != want {
			t.Errorf("Records[%d] = %q, want %q (oldest evicted, oldest-first order)", i, rec.Name, want)
		}
	}
}

func TestSummaries(t *testing.T) {
	st := NewStore(16)
	ctx, root := st.Root(context.Background(), "campaign", "t1")
	_, child := StartSpan(ctx, "job")
	child.End()
	root.End()
	_, other := st.Root(context.Background(), "run", "t2")
	other.End()

	sums := st.Summaries()
	if len(sums) != 2 {
		t.Fatalf("Summaries = %d traces, want 2", len(sums))
	}
	if sums[0].TraceID != "t1" || sums[0].Spans != 2 || sums[0].Root != "campaign" {
		t.Errorf("trace t1 summary = %+v", sums[0])
	}
	if sums[1].TraceID != "t2" || sums[1].Spans != 1 || sums[1].Root != "run" {
		t.Errorf("trace t2 summary = %+v", sums[1])
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	st := NewStore(1024)
	ctx, root := st.Root(context.Background(), "bench", "")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "child")
		s.End()
	}
}

func BenchmarkInertSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "child")
		s.SetAttr("k", "v")
		s.End()
	}
}

// TestStoreAllocatesRingOnFirstAdd pins the lazy ring: a new store
// costs its header only, reads of an empty store allocate nothing, and
// the first add allocates the ring at full capacity in one go.
func TestStoreAllocatesRingOnFirstAdd(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() { _ = NewStore(DefaultCapacity) }); avg > 1 {
		t.Errorf("NewStore: %v allocs, want the header only", avg)
	}
	st := NewStore(DefaultCapacity)
	if avg := testing.AllocsPerRun(100, func() { _ = st.Stats() }); avg != 0 {
		t.Errorf("Stats before any add: %v allocs, want 0", avg)
	}
	if got := st.Stats(); got != (Stats{Capacity: DefaultCapacity}) {
		t.Errorf("Stats of an empty store = %+v", got)
	}
	if st.Records() == nil || len(st.Records()) != 0 || st.Trace("x") != nil || st.Mark() != 0 {
		t.Error("reads of an empty store disagree with an empty ring")
	}
	if st.buf != nil {
		t.Fatal("ring allocated before the first add")
	}
	_, s := st.Root(context.Background(), "r", "")
	s.End()
	if len(st.buf) != DefaultCapacity || cap(st.buf) != DefaultCapacity {
		t.Errorf("ring len %d cap %d after the first add, want %d", len(st.buf), cap(st.buf), DefaultCapacity)
	}
}

func TestStatsCounters(t *testing.T) {
	st := NewStore(2)
	for i := 0; i < 3; i++ {
		_, s := st.Root(context.Background(), "r", "")
		s.End()
	}
	stats := st.Stats()
	if stats.Capacity != 2 {
		t.Errorf("Capacity = %d, want 2", stats.Capacity)
	}
	if stats.Spans != 2 {
		t.Errorf("Spans = %d, want 2 (ring full)", stats.Spans)
	}
	// 3 roots overflow the 2-slot ring once.
	if stats.EvictedSpans != 1 {
		t.Errorf("EvictedSpans = %d, want 1", stats.EvictedSpans)
	}
}

func TestImportDedup(t *testing.T) {
	st := NewStore(16)
	_, local := st.Root(context.Background(), "local", "t1")
	local.End()
	localRec := st.Trace("t1")[0]

	batch := []SpanRecord{
		localRec, // already resident: skipped
		{TraceID: "t1", SpanID: "w1", Name: "dist.lease"}, // new
		{TraceID: "t1", SpanID: "w1", Name: "dist.lease"}, // duplicate within batch
		{TraceID: "", SpanID: "x", Name: "no-trace"},      // rejected: empty trace ID
		{TraceID: "t1", SpanID: "", Name: "no-span"},      // rejected: empty span ID
	}
	if added := st.Import(batch); added != 1 {
		t.Fatalf("Import added %d spans, want 1", added)
	}
	if got := len(st.Trace("t1")); got != 2 {
		t.Fatalf("trace t1 has %d spans after import, want 2", got)
	}
	// Re-importing the same batch is a no-op: redelivered completions
	// must not duplicate spans.
	if added := st.Import(batch); added != 0 {
		t.Errorf("re-Import added %d spans, want 0", added)
	}
	if added := st.Import(nil); added != 0 {
		t.Errorf("Import(nil) added %d spans, want 0", added)
	}
}

// spanLog adds n spans to st, span i in trace "a" when i%3 == 0 and in
// "b" otherwise, and returns them in write order.
func spanLog(st *Store, n int) []SpanRecord {
	log := make([]SpanRecord, n)
	for i := range log {
		log[i] = SpanRecord{TraceID: "b", SpanID: fmt.Sprintf("s%03d", i), Name: fmt.Sprintf("span-%d", i)}
		if i%3 == 0 {
			log[i].TraceID = "a"
		}
		st.add(log[i])
	}
	return log
}

// TestSinceAcrossWraparound checks Since against every mark of a store
// that has wrapped more than twice, marks taken before the first wrap
// (written-mark > capacity) included: it must return exactly the still
// resident spans of the trace written at or after the mark, oldest
// first, and nothing of other traces.
func TestSinceAcrossWraparound(t *testing.T) {
	const capacity, total = 8, 21
	st := NewStore(capacity)
	log := spanLog(st, total)
	if got := st.Mark(); got != total {
		t.Fatalf("Mark = %d, want %d", got, total)
	}
	for mark := 0; mark <= total+1; mark++ {
		var want []SpanRecord
		for i := max(mark, total-capacity); i < total; i++ {
			if log[i].TraceID == "a" {
				want = append(want, log[i])
			}
		}
		got := st.Since("a", uint64(mark))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("Since(a, %d) = %v\nwant %v", mark, got, want)
		}
	}
	if got := st.Trace("a"); fmt.Sprint(got) != fmt.Sprint(st.Since("a", 0)) {
		t.Errorf("Trace(a) = %v, want Since(a, 0)", got)
	}
}

// TestImportIntoFullRing runs the dedup rules on a wrapped ring: a
// resident span is skipped, an in-batch duplicate is added once, and a
// span the ring has already evicted is added back.
func TestImportIntoFullRing(t *testing.T) {
	st := NewStore(4)
	log := spanLog(st, 6) // s002..s005 resident, s000 and s001 evicted
	fresh := SpanRecord{TraceID: "a", SpanID: "new", Name: "dist.lease"}
	batch := []SpanRecord{log[3], fresh, fresh, log[0]}
	if added := st.Import(batch); added != 2 {
		t.Fatalf("Import added %d spans, want 2 (fresh once, evicted s000)", added)
	}
	got := st.Records()
	var ids []string
	for _, rec := range got {
		ids = append(ids, rec.SpanID)
	}
	if want := "[s004 s005 new s000]"; fmt.Sprint(ids) != want {
		t.Errorf("ring after import = %v, want %s", ids, want)
	}
	if stats := st.Stats(); stats.EvictedSpans != 4 {
		t.Errorf("EvictedSpans = %d, want 4", stats.EvictedSpans)
	}
}

// TestStoreConcurrentUse races span writers against every reader of
// the write clock: Mark, Since, Import and Stats. Run it under -race.
func TestStoreConcurrentUse(t *testing.T) {
	st := NewStore(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, s := st.Root(context.Background(), "w", "shared")
				s.End()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		mark := st.Mark()
		for _, rec := range st.Since("shared", mark) {
			if rec.TraceID != "shared" {
				t.Fatalf("Since returned a span of trace %q", rec.TraceID)
			}
		}
		st.Import([]SpanRecord{{TraceID: "shared", SpanID: fmt.Sprintf("imp%d", i)}})
		if stats := st.Stats(); stats.Spans > stats.Capacity {
			t.Fatalf("Stats = %+v: more spans than capacity", stats)
		}
	}
	wg.Wait()
	if got, want := st.Mark(), uint64(4*200+200); got != want {
		t.Errorf("Mark = %d after all writes, want %d", got, want)
	}
}

// fullRing returns a DefaultCapacity store filled by one campaign trace
// "c" except for the last lease spans of trace "lease".
func fullRing(lease int) *Store {
	st := NewStore(DefaultCapacity)
	for i := 0; i < DefaultCapacity; i++ {
		id := "c"
		if i >= DefaultCapacity-lease {
			id = "lease"
		}
		st.add(SpanRecord{TraceID: id, SpanID: NewSpanID(), Name: "campaign.job"})
	}
	return st
}

// TestTraceAllocationBound pins Trace's cost to the trace, not the
// ring: reading a 70-span trace out of a full ring must not copy the
// ring (4096 spans are ~0.5 MB).
func TestTraceAllocationBound(t *testing.T) {
	st := fullRing(70)
	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if got := len(st.Trace("lease")); got != 70 {
			t.Fatalf("Trace = %d spans, want 70", got)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Errorf("Trace of a 70-span trace allocates %d B per call, want < 64 KiB", per)
	}
}

// spanSink keeps benchmarked reads live so the compiler cannot drop them.
var spanSink []SpanRecord

// BenchmarkStoreTraceFull reads a 70-span lease back out of a full
// ring two ways: Trace by ID, and Since from the mark taken before the
// lease (the dist worker's completion hand-off).
func BenchmarkStoreTraceFull(b *testing.B) {
	st := fullRing(70)
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spanSink = st.Trace("lease")
		}
	})
	b.Run("since", func(b *testing.B) {
		mark := st.Mark() - 70
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spanSink = st.Since("lease", mark)
		}
	})
}

// BenchmarkStoreImportFull imports 70-span completion batches into a
// full ring. The batches cycle through more spans than the ring holds,
// so each one has been evicted by the time it comes round again and
// every Import adds all 70.
func BenchmarkStoreImportFull(b *testing.B) {
	st := fullRing(0)
	batches := make([][]SpanRecord, DefaultCapacity/70+2)
	for i := range batches {
		for j := 0; j < 70; j++ {
			batches[i] = append(batches[i], SpanRecord{TraceID: "c", SpanID: NewSpanID(), Name: "campaign.job"})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if added := st.Import(batches[i%len(batches)]); added != 70 {
			b.Fatalf("Import added %d, want 70", added)
		}
	}
}
