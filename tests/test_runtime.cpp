// Inference runtime tests: BoundedQueue semantics (micro-batch close rules,
// backpressure, drain-on-close), metrics quantiles, and server behaviour over
// a real trained deployment — per-request determinism against the serial
// path, graceful shutdown without lost or duplicated requests, and a
// multi-producer stress run mixing both configurations.
//
// Registered as ONE ctest entry (like test_core): the fixture trains a
// deployment once per process. Also run under -DITASK_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/itask.h"
#include "nn/attention.h"
#include "runtime/clock.h"
#include "runtime/exposition.h"
#include "runtime/fleet.h"
#include "runtime/loadgen.h"
#include "runtime/metrics.h"
#include "runtime/queue.h"
#include "runtime/server.h"
#include "runtime/trace.h"
#include "tensor/arena.h"
#include "tensor/gemm.h"
#include "tensor/profile.h"

// ------------------------- instrumented global allocator --------------------
// This binary replaces the ordinary (and aligned) operator new/delete so that
// every heap allocation bumps the allocating thread's allocdebug counter —
// the instrument behind the zero-steady-state-allocation serving contract:
// the server reads the counter delta around each worker's arena-scoped
// region and surfaces it as the `hot_path_allocs` metric, which the Arena*
// tests below assert stops moving after warmup. Allocations route through
// malloc / posix_memalign, which ASan and TSan intercept as usual, so the
// sanitized runs of this suite keep their full coverage. The nothrow
// variants need no replacement: the defaults forward to these.

namespace {

void* counted_alloc(std::size_t size) {
  itask::allocdebug::note_alloc();
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  itask::allocdebug::note_alloc();
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace itask::runtime {
namespace {

using core::ConfigKind;
using core::Framework;
using core::FrameworkOptions;
using core::TaskHandle;

constexpr auto kNoWait = std::chrono::microseconds(0);
constexpr auto kLongWait = std::chrono::microseconds(200000);

// ---------------------------------------------------------------- queue ----

// A single item through the queue's one producer entry: a span of one.
template <class T>
bool push_one(BoundedQueue<T>& q, T item) {
  return q.push_all(std::span<T>(&item, 1)) == PushResult::kOk;
}

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(push_one(q, 1));
  EXPECT_TRUE(push_one(q, 2));
  EXPECT_FALSE(push_one(q, 3));  // backpressure: full queue rejects
  EXPECT_EQ(q.size(), 2);
  const auto batch = q.pop_batch(8, kNoWait);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_TRUE(push_one(q, 3));  // capacity freed, admission resumes
}

TEST(BoundedQueue, RejectsAfterClose) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(push_one(q, 1));
  q.close();
  EXPECT_FALSE(push_one(q, 2));
}

TEST(BoundedQueue, BatchClosesAtMaxItems) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 7; ++i) push_one(q, i);
  const auto batch = q.pop_batch(4, kLongWait);
  ASSERT_EQ(batch.size(), 4u);  // size rule fires before the deadline
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)], i);
  EXPECT_EQ(q.size(), 3);
}

TEST(BoundedQueue, PopIntoCallerBufferReusesStorageNoAlloc) {
  // The allocation-free overload the worker loop uses: the caller owns the
  // batch vector, pop_batch clears and refills it, and once the buffer has
  // grown to max_items a steady-state pop performs zero heap allocations.
  BoundedQueue<int> q(16);
  std::vector<int> batch;
  batch.reserve(4);  // warm: capacity covers every batch below
  for (int i = 0; i < 6; ++i) push_one(q, i);
  const int64_t before = allocdebug::thread_alloc_count();
  q.pop_batch(4, kNoWait, batch);
  EXPECT_EQ(allocdebug::thread_alloc_count(), before);
  ASSERT_EQ(batch.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)], i);
  q.pop_batch(4, kNoWait, batch);  // refill clears the previous contents
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 4);
  EXPECT_EQ(batch[1], 5);
  q.close();
  q.pop_batch(4, kNoWait, batch);  // closed and drained → empty batch
  EXPECT_TRUE(batch.empty());
}

TEST(BoundedQueue, BatchClosesAtDeadline) {
  BoundedQueue<int> q(16);
  push_one(q, 42);
  const auto start = std::chrono::steady_clock::now();
  const auto batch = q.pop_batch(8, std::chrono::microseconds(2000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 1u);  // deadline rule: don't wait forever for 8
  EXPECT_EQ(batch[0], 42);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(BoundedQueue, DrainsAfterCloseThenSignalsExit) {
  BoundedQueue<int> q(8);
  push_one(q, 1);
  push_one(q, 2);
  q.close();
  const auto batch = q.pop_batch(8, kNoWait);
  ASSERT_EQ(batch.size(), 2u);  // close() does not drop admitted items
  const auto empty = q.pop_batch(8, kNoWait);
  EXPECT_TRUE(empty.empty());  // closed AND drained → exit signal
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    const auto batch = q.pop_batch(4, kLongWait);
    EXPECT_TRUE(batch.empty());
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(returned);
}

TEST(BoundedQueue, OpenBatchTakesItemsPushedWhileItPolls) {
  // The consumer polls (spins) for the next item of an open batch before it
  // blocks; an item pushed during that window, or after it, joins the same
  // batch in push order, and the size rule still closes the batch.
  BoundedQueue<int> q(8);
  std::vector<int> batch;
  std::thread consumer([&] { q.pop_batch(3, kLongWait, batch); });
  push_one(q, 1);
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  push_one(q, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  push_one(q, 3);
  consumer.join();
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.size(), 0);
}

TEST(BoundedQueue, CloseEndsAnOpenBatchEarly) {
  // close() ends a batch that is still gathering, whether the consumer is
  // polling or blocked at that moment: it returns what it has instead of
  // waiting out max_wait.
  BoundedQueue<int> q(8);
  push_one(q, 7);
  const auto start = std::chrono::steady_clock::now();
  std::vector<int> batch;
  std::thread consumer(
      [&] { q.pop_batch(4, std::chrono::seconds(30), batch); });
  std::this_thread::sleep_for(std::chrono::microseconds(100));
  q.close();
  consumer.join();
  EXPECT_EQ(batch, (std::vector<int>{7}));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

TEST(BoundedQueue, ConcurrentProducersLoseNothing) {
  BoundedQueue<int> q(1024);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 128;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(push_one(q, p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  std::set<int> seen;
  while (true) {
    const auto batch = q.pop_batch(32, kNoWait);
    if (batch.empty()) break;
    seen.insert(batch.begin(), batch.end());
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
}

TEST(BoundedQueue, ValidatesArguments) {
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
  BoundedQueue<int> q(1);
  EXPECT_THROW(q.pop_batch(0, kNoWait), std::invalid_argument);
}

namespace {

// Models the worst legal moved-from state: a payload whose move keeps the
// shared buffer (the standard only promises "valid but unspecified"). The
// queue must not rely on T's move releasing anything — it has to reset the
// slot itself.
struct StickyPayload {
  std::shared_ptr<int> buffer;

  StickyPayload() = default;
  explicit StickyPayload(int v) : buffer(std::make_shared<int>(v)) {}
  StickyPayload(const StickyPayload&) = default;
  StickyPayload& operator=(const StickyPayload&) = default;
  StickyPayload(StickyPayload&& other) noexcept : buffer(other.buffer) {}
  StickyPayload& operator=(StickyPayload&& other) noexcept {
    buffer = other.buffer;  // deliberately keeps the source's reference
    return *this;
  }
};

}  // namespace

TEST(BoundedQueue, PopReleasesSlotResourcesAtPopNotNextPush) {
  // The ring-slot pinning bug: pop_batch used to move a slot out and leave
  // the moved-from shell in the ring, so whatever it still referenced (for
  // the runtime: a request's image Tensor and promise state) stayed alive
  // until a LATER push happened to overwrite that slot — up to `capacity`
  // requests pinned while the queue idles. The fix resets the slot at pop.
  BoundedQueue<StickyPayload> q(4);
  StickyPayload item(7);
  std::weak_ptr<int> observer = item.buffer;
  ASSERT_TRUE(push_one(q, std::move(item)));
  item.buffer.reset();  // drop the producer's (sticky-move) reference
  EXPECT_EQ(observer.use_count(), 1);  // only the ring slot holds it

  auto batch = q.pop_batch(4, kNoWait);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(*batch[0].buffer, 7);
  // Released at pop: the popped element must be the SOLE owner now — no
  // moved-from shell left in the ring still referencing the buffer.
  EXPECT_EQ(observer.use_count(), 1);
  batch.clear();
  EXPECT_TRUE(observer.expired())
      << "the queue kept a request's buffer alive after it was popped";
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 4000);
}

TEST(Metrics, HistogramQuantilesBracketTruth) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000);
  EXPECT_NEAR(s.mean, 500.5, 1e-6);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 1000.0);
  // Geometric buckets (growth 1.25) bound quantile error to ~25% upward.
  EXPECT_GE(s.p50, 500.0);
  EXPECT_LE(s.p50, 500.0 * 1.3);
  EXPECT_GE(s.p95, 950.0);
  EXPECT_LE(s.p99, 1000.0);  // clamped by observed max
}

TEST(Metrics, EmptyHistogramSnapshotIsZero) {
  Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  // Every field is exactly zero — never NaN (0/0 mean), never a bucket
  // bound leaking out of an empty histogram.
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_TRUE(s.buckets.empty());
}

TEST(Metrics, SingleSampleCollapsesQuantiles) {
  Histogram h;
  h.record(137.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.min, 137.0);
  EXPECT_EQ(s.max, 137.0);
  EXPECT_EQ(s.mean, 137.0);
  // One sample: every quantile IS that sample (clamped by observed
  // min/max), not the bucket's upper bound.
  EXPECT_EQ(s.p50, 137.0);
  EXPECT_EQ(s.p95, 137.0);
  EXPECT_EQ(s.p99, 137.0);
  ASSERT_EQ(s.buckets.size(), 1u);
  EXPECT_EQ(s.buckets[0].count, 1);
}

TEST(Metrics, PathologicalSamplesSaturateWithoutOverflow) {
  // Samples far above the top bucket (or non-finite) must saturate into the
  // last bucket — never cast an out-of-range double to an index — and must
  // keep every snapshot field finite.
  Histogram h;  // default top bucket ~1e8
  h.record(1e30);
  h.record(std::numeric_limits<double>::infinity());
  h.record(-std::numeric_limits<double>::infinity());  // clamps to 0
  h.record(std::numeric_limits<double>::quiet_NaN());  // records as 0
  h.record(50.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 5);
  int64_t bucket_total = 0;
  for (const auto& b : s.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, std::numeric_limits<double>::max());  // +inf clamped
  EXPECT_TRUE(std::isfinite(s.sum));
  EXPECT_TRUE(std::isfinite(s.mean));
  EXPECT_TRUE(std::isfinite(s.p50));
  EXPECT_TRUE(std::isfinite(s.p95));
  EXPECT_TRUE(std::isfinite(s.p99));
  // Both oversized samples landed in the saturation bucket, whose bound is
  // near the configured max_value — not at 1e30.
  EXPECT_EQ(s.buckets.back().count, 2);
  EXPECT_LT(s.buckets.back().upper, 1e9);
}

TEST(Metrics, SnapshotConsistentUnderConcurrentRecords) {
  // Multi-producer record() racing snapshot(): every snapshot must be an
  // internally consistent point in time — count == Σ bucket counts and
  // min <= mean <= max — and the final count must equal what was recorded.
  // Run under -DITASK_SANITIZE=thread in CI.
  Histogram h;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, &running, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        h.record(static_cast<double>((w * kPerWriter + i) % 977) + 0.5);
      }
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    const auto s = h.snapshot();
    int64_t bucket_total = 0;
    for (const auto& b : s.buckets) bucket_total += b.count;
    ASSERT_EQ(bucket_total, s.count);
    if (s.count > 0) {
      ASSERT_LE(s.min, s.mean);
      ASSERT_LE(s.mean, s.max);
    }
  }
  for (auto& t : writers) t.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, kWriters * kPerWriter);
  int64_t bucket_total = 0;
  for (const auto& b : s.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(Metrics, RegistrySnapshotIsOrderedAndComplete) {
  MetricsRegistry m;
  m.counter("b_counter").increment(2);
  m.counter("a_counter").increment(1);
  m.histogram("lat").record(10.0);
  const RegistrySnapshot s = m.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a_counter");  // name order, stable output
  EXPECT_EQ(s.counters[0].second, 1);
  EXPECT_EQ(s.counters[1].first, "b_counter");
  EXPECT_EQ(s.counters[1].second, 2);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].first, "lat");
  EXPECT_EQ(s.histograms[0].second.count, 1);
}

// ----------------------------------------------------- stage trace units ----

TEST(StageTrace, SpanClampsNegativeDurations) {
  EXPECT_EQ(span_us(50, 100), 50.0);
  EXPECT_EQ(span_us(100, 100), 0.0);
  // Defensive clamp: skewed/reordered clock readings become 0, never a
  // negative duration poisoning a histogram.
  EXPECT_EQ(span_us(100, 50), 0.0);
}

TEST(StageTrace, StageHistogramNamesAreStable) {
  EXPECT_STREQ(stage_histogram_name(Stage::kQueueWait), "stage_queue_wait_us");
  EXPECT_STREQ(stage_histogram_name(Stage::kBatchFormation),
               "stage_batch_formation_us");
  EXPECT_STREQ(stage_histogram_name(Stage::kInfer), "stage_infer_us");
  EXPECT_STREQ(stage_histogram_name(Stage::kTotal), "stage_total_us");
}

TEST(StageTrace, TerminalKindDecidesWhichStagesRecord) {
  MetricsRegistry m;
  StageRecorder rec(m);
  StageTimeline t;
  t.admitted_us = 100;
  t.picked_us = 350;
  t.infer_start_us = 360;
  t.infer_end_us = 400;
  rec.completed(t);
  rec.failed(t);
  rec.expired(t);
  // failed/expired requests never finished inference: they contribute to
  // queue-wait only, so the infer/total histograms hold true latencies.
  EXPECT_EQ(m.histogram("stage_queue_wait_us").snapshot().count, 3);
  EXPECT_EQ(m.histogram("stage_batch_formation_us").snapshot().count, 1);
  EXPECT_EQ(m.histogram("stage_infer_us").snapshot().count, 1);
  EXPECT_EQ(m.histogram("stage_total_us").snapshot().count, 1);
  EXPECT_EQ(m.histogram("stage_queue_wait_us").snapshot().max, 250.0);
  EXPECT_EQ(m.histogram("stage_total_us").snapshot().max, 300.0);
}

// ----------------------------------------------------------- exposition ----

TEST(Exposition, PrometheusGoldenRender) {
  profile::reset();  // no kernel block: snapshot must be clean of other tests
  MetricsRegistry m;
  m.counter("bad-name").increment(1);  // sanitized to bad_name
  m.counter("batches").increment(2);
  m.histogram("lat").record(2.0);  // bucket 3 of growth 1.25: upper 2.44141
  const std::string expected =
      "# TYPE itask_bad_name counter\n"
      "itask_bad_name 1\n"
      "# TYPE itask_batches counter\n"
      "itask_batches 2\n"
      "# TYPE itask_lat histogram\n"
      "itask_lat_bucket{le=\"2.44141\"} 1\n"
      "itask_lat_bucket{le=\"+Inf\"} 1\n"
      "itask_lat_sum 2\n"
      "itask_lat_count 1\n"
      "itask_lat_p50 2\n"
      "itask_lat_p95 2\n"
      "itask_lat_p99 2\n";
  EXPECT_EQ(to_prometheus(collect(m)), expected);
}

TEST(Exposition, JsonSnapshotStructure) {
  profile::reset();
  MetricsRegistry m;
  m.counter("requests_completed").increment(3);
  m.histogram("lat").record(2.0);
  const std::string json = to_json(collect(m));
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"requests_completed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"lat\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [[2.44141, 1]]"), std::string::npos);
  // Hooks off ⇒ no kernel_profile block at all.
  EXPECT_EQ(json.find("kernel_profile"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
}

TEST(Exposition, KernelSectionsAppearOnlyWhenEnabled) {
  profile::reset();
  MetricsRegistry m;
  const float a[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float b[4] = {5.0f, 6.0f, 7.0f, 8.0f};
  float c[4] = {};
  Rng rng(5);
  const nn::MultiHeadAttention attn(8, 2, rng);
  const Tensor tokens = rng.randn({1, 3, 8});
  gemm::gemm_bt(a, b, c, 2, 2, 2);
  (void)attn.infer(tokens);
  EXPECT_TRUE(profile::snapshot().empty());  // hooks off: nothing recorded
  profile::set_enabled(true);
  gemm::gemm_bt(a, b, c, 2, 2, 2);
  (void)attn.infer(tokens);
  profile::set_enabled(false);
  const std::string text = to_prometheus(collect(m));
  EXPECT_NE(text.find("itask_kernel_profile_calls{section=\"gemm_pack\"}"),
            std::string::npos);
  EXPECT_NE(text.find("itask_kernel_profile_calls{section=\"gemm_kernel\"}"),
            std::string::npos);
  EXPECT_NE(text.find("itask_kernel_profile_ns{section=\"gemm_kernel\"}"),
            std::string::npos);
  EXPECT_NE(text.find("itask_kernel_profile_calls{section=\"attention\"}"),
            std::string::npos);
  profile::reset();
  EXPECT_TRUE(profile::snapshot().empty());
}

TEST(Exposition, PeriodicReporterFlushesFinalReportOnStop) {
  profile::reset();
  MetricsRegistry m;
  m.counter("x").increment(5);
  std::mutex mu;
  std::vector<std::string> renders;
  PeriodicReporter reporter(m, std::chrono::milliseconds(5),
                            [&](const std::string& s) {
                              std::lock_guard<std::mutex> lock(mu);
                              renders.push_back(s);
                            });
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  m.counter("x").increment(2);  // happens-before stop(): must reach the sink
  reporter.stop();
  reporter.stop();  // idempotent
  ASSERT_FALSE(renders.empty());
  // stop() renders once more *after* observing the stop flag, so the last
  // report always contains every record that happened before stop().
  EXPECT_NE(renders.back().find("itask_x 7"), std::string::npos);
  const size_t after_stop = renders.size();
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  EXPECT_EQ(renders.size(), after_stop);  // thread is really gone
}

TEST(Exposition, ReporterValidatesArguments) {
  MetricsRegistry m;
  EXPECT_THROW(
      PeriodicReporter(m, std::chrono::milliseconds(0), [](const std::string&) {}),
      std::invalid_argument);
  EXPECT_THROW(PeriodicReporter(m, std::chrono::milliseconds(5), nullptr),
               std::invalid_argument);
}

TEST(Metrics, RegistryReturnsStableNamedInstances) {
  MetricsRegistry m;
  Counter& a = m.counter("x");
  a.increment(3);
  EXPECT_EQ(&m.counter("x"), &a);
  EXPECT_EQ(m.counter("x").value(), 3);
  m.histogram("lat").record(10.0);
  const std::string report = m.report();
  EXPECT_NE(report.find("x: 3"), std::string::npos);
  EXPECT_NE(report.find("lat:"), std::string::npos);
}

// --------------------------------------------------------------- server ----

FrameworkOptions fast_options() {
  FrameworkOptions o;
  o.corpus_size = 256;
  o.task_corpus_size = 128;
  o.multitask_corpus_size = 128;
  o.calibration_scenes = 8;
  o.teacher_training.epochs = 16;
  o.distillation.epochs = 18;
  o.multitask_distillation.epochs = 18;
  o.seed = 7;
  return o;
}

// One trained deployment shared by all server tests (teacher pretraining is
// the expensive step; do it once per process). `snap_` is the baseline
// published snapshot (version 1) most server tests serve from; tests that
// need a later snapshot publish their own.
class RuntimeServing : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fw_ = new Framework(fast_options());
    fw_->pretrain_teacher();
    task_ = new TaskHandle(fw_->define_task(data::task_by_id(1)));
    fw_->prepare_task_specific(*task_);
    fw_->prepare_quantized();
    snap_ = new std::shared_ptr<const core::DeploymentSnapshot>(
        fw_->publish());
    Rng rng(123);
    data::SceneGenerator gen(fw_->options().generator);
    eval_ = new data::Dataset(data::Dataset::generate(gen, 24, rng));
  }
  static void TearDownTestSuite() {
    delete eval_;
    delete snap_;
    delete task_;
    delete fw_;
  }

  static void expect_same_detections(
      const std::vector<detect::Detection>& got,
      const std::vector<detect::Detection>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].cell, want[i].cell);
      EXPECT_EQ(got[i].predicted_class, want[i].predicted_class);
      // Element-wise identity, not tolerance: the runtime's determinism
      // contract says batching/scheduling never changes a result bit.
      EXPECT_EQ(got[i].objectness, want[i].objectness);
      EXPECT_EQ(got[i].task_score, want[i].task_score);
      EXPECT_EQ(got[i].confidence, want[i].confidence);
      EXPECT_EQ(got[i].box.cx, want[i].box.cx);
      EXPECT_EQ(got[i].box.cy, want[i].box.cy);
      EXPECT_EQ(got[i].box.w, want[i].box.w);
      EXPECT_EQ(got[i].box.h, want[i].box.h);
    }
  }

  static Framework* fw_;
  static TaskHandle* task_;
  static std::shared_ptr<const core::DeploymentSnapshot>* snap_;
  static data::Dataset* eval_;
};

Framework* RuntimeServing::fw_ = nullptr;
TaskHandle* RuntimeServing::task_ = nullptr;
std::shared_ptr<const core::DeploymentSnapshot>* RuntimeServing::snap_ =
    nullptr;
data::Dataset* RuntimeServing::eval_ = nullptr;

TEST_F(RuntimeServing, PublishStampsMonotonicVersionsAndSharesModels) {
  const auto a = fw_->publish();
  const auto b = fw_->publish();
  EXPECT_EQ(b->version(), a->version() + 1);
  EXPECT_GE(a->version(), 1);
  EXPECT_EQ((*snap_)->version(), 1);
  EXPECT_TRUE(a->has_task(task_->id));
  EXPECT_TRUE(a->servable(task_->id, ConfigKind::kTaskSpecific));
  EXPECT_TRUE(a->servable(task_->id, ConfigKind::kQuantizedMultiTask));
  EXPECT_FALSE(a->servable(kg::TaskId{9999}, ConfigKind::kQuantizedMultiTask));
  EXPECT_EQ(a->expected_input_shape(), fw_->expected_input_shape());
  EXPECT_EQ(fw_->published_snapshots(), b->version());
}

TEST_F(RuntimeServing, SnapshotInferBatchMatchesDetectBatchExactly) {
  // The published serving path must agree with the Framework's mutable
  // serial path element-wise, for both deployable configurations — the
  // identity that makes snapshot swaps invisible to results.
  Tensor images({eval_->size(), 3, 24, 24});
  for (int64_t i = 0; i < eval_->size(); ++i) {
    images.set_index(i, eval_->scene(i).image);
  }
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    const auto serial = fw_->detect_batch(images, *task_, config);
    const auto snapshot = (*snap_)->infer_batch(images, task_->id, config);
    ASSERT_EQ(serial.size(), snapshot.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      expect_same_detections(snapshot[i], serial[i]);
    }
  }
}

TEST_F(RuntimeServing, PublishPrepacksServingKernelsWithoutChangingResults) {
  // publish() pre-packed every model snap_ captured, so the snapshot path
  // must actually hit the prepacked kernels (the profile counters tick) —
  // while SnapshotInferBatchMatchesDetectBatchExactly above pins the other
  // half of the contract: results stay element-wise identical to the
  // never-prepacked serial forward() path.
  Tensor images({eval_->size(), 3, 24, 24});
  for (int64_t i = 0; i < eval_->size(); ++i) {
    images.set_index(i, eval_->scene(i).image);
  }
  profile::reset();
  profile::set_enabled(true);
  const auto fp32 =
      (*snap_)->infer_batch(images, task_->id, ConfigKind::kTaskSpecific);
  const auto int8 = (*snap_)->infer_batch(images, task_->id,
                                          ConfigKind::kQuantizedMultiTask);
  profile::set_enabled(false);
  int64_t fp32_calls = 0, int8_calls = 0;
  int64_t fp32_bytes = 0, int8_bytes = 0;
  for (const auto& c : profile::counter_snapshot()) {
    switch (c.counter) {
      case profile::Counter::kGemmPrepackedCalls: fp32_calls = c.value; break;
      case profile::Counter::kGemmPackBytesAvoided: fp32_bytes = c.value; break;
      case profile::Counter::kInt8PrepackedCalls: int8_calls = c.value; break;
      case profile::Counter::kInt8PackBytesAvoided: int8_bytes = c.value; break;
      default: break;
    }
  }
  profile::reset();
  EXPECT_GT(fp32_calls, 0) << "fp32 student served without prepacked weights";
  EXPECT_GT(int8_calls, 0) << "quantized model served without prepacked weights";
  EXPECT_GT(fp32_bytes, 0);
  EXPECT_GT(int8_bytes, 0);
  // And the equality half once more, on the counters' own run.
  const auto serial_fp32 =
      fw_->detect_batch(images, *task_, ConfigKind::kTaskSpecific);
  const auto serial_int8 =
      fw_->detect_batch(images, *task_, ConfigKind::kQuantizedMultiTask);
  ASSERT_EQ(fp32.size(), serial_fp32.size());
  ASSERT_EQ(int8.size(), serial_int8.size());
  for (size_t i = 0; i < fp32.size(); ++i) {
    expect_same_detections(fp32[i], serial_fp32[i]);
    expect_same_detections(int8[i], serial_int8[i]);
  }
}

TEST_F(RuntimeServing, SnapshotValidatesConstructionAndUnservableRequests) {
  EXPECT_THROW(core::DeploymentSnapshot(0, Shape{3, 24, 24}, kg::TaskTable{},
                                        {}, nullptr, core::DetectionPipeline{}),
               std::invalid_argument);
  EXPECT_THROW(core::DeploymentSnapshot(1, Shape{24, 24}, kg::TaskTable{}, {},
                                        nullptr, core::DetectionPipeline{}),
               std::invalid_argument);
  Tensor images({1, 3, 24, 24});
  images.set_index(0, eval_->scene(0).image);
  // Unknown task and absent student both throw with the snapshot version in
  // the message.
  EXPECT_THROW((*snap_)->infer_batch(images, kg::TaskId{9999},
                                     ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
}

TEST_F(RuntimeServing, SnapshotRejectsImagesOfAnotherSizeOnBothConfigs) {
  // The deployment is 24px (9 patches); a 32px batch has 16. Both
  // configurations must throw instead of returning a silently wrong
  // [2, 9, 1] objectness.
  const Tensor images({2, 3, 32, 32});
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    EXPECT_THROW((*snap_)->infer_raw(images, task_->id, config),
                 std::invalid_argument)
        << core::config_kind_name(config);
  }
}

TEST_F(RuntimeServing, ResultsDeterministicVsSerialPath) {
  // Whatever micro-batches the workers form, every request's detections
  // must be element-wise identical to serial single-image detection.
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    std::vector<std::future<InferenceResult>> futures;
    {
      RuntimeOptions opts;
      opts.workers = 3;
      opts.max_batch = 4;
      opts.max_wait_us = 500;
      opts.queue_capacity = 64;
      InferenceServer server(*snap_, opts);
      for (int64_t i = 0; i < eval_->size(); ++i) {
        auto f = server.try_submit(eval_->scene(i).image, *task_, config);
        ASSERT_TRUE(f.admitted());
        futures.push_back(std::move(*f.future));
      }
    }  // destructor = graceful shutdown; all futures must be fulfilled
    for (int64_t i = 0; i < eval_->size(); ++i) {
      InferenceResult r = futures[static_cast<size_t>(i)].get();
      EXPECT_EQ(r.request_id, i);
      EXPECT_EQ(r.snapshot_version, (*snap_)->version());
      const auto serial = fw_->detect(eval_->scene(i).image, *task_, config);
      expect_same_detections(r.detections, serial);
    }
  }
}

TEST_F(RuntimeServing, ShutdownDrainsEveryAdmittedRequest) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.max_wait_us = 200;
  opts.queue_capacity = 128;
  InferenceServer server(*snap_, opts);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 24; ++i) {
    auto f = server.try_submit(eval_->scene(i % eval_->size()).image, *task_,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  server.shutdown();  // must fulfil all 24, not drop queued ones
  std::set<int64_t> ids;
  for (auto& f : futures) {
    const InferenceResult r = f.get();
    EXPECT_TRUE(ids.insert(r.request_id).second) << "duplicated request";
    EXPECT_GE(r.total_us, r.infer_us);
    EXPECT_GE(r.batch_size, 1);
  }
  EXPECT_EQ(ids.size(), 24u);  // nothing lost
  EXPECT_EQ(server.metrics().counter("requests_completed").value(), 24);
  EXPECT_EQ(server.metrics().counter("requests_submitted").value(), 24);
  server.shutdown();  // idempotent
}

TEST_F(RuntimeServing, BackpressureRejectsWhenQueueFull) {
  // No workers can make progress while we hold the only worker hostage with
  // a tiny queue: use a capacity-2 queue and a single slow worker, then
  // submit faster than it can drain.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 2;
  InferenceServer server(*snap_, opts);
  int64_t accepted = 0;
  int64_t rejected = 0;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 64; ++i) {
    auto f = server.try_submit(eval_->scene(i % eval_->size()).image, *task_,
                               ConfigKind::kQuantizedMultiTask);
    if (f.admitted()) {
      EXPECT_EQ(f.reject, RejectReason::kNone);
      ++accepted;
      futures.push_back(std::move(*f.future));
    } else {
      // The typed result names the cause — backpressure, not shutdown.
      EXPECT_EQ(f.reject, RejectReason::kQueueFull);
      EXPECT_FALSE(f);  // operator bool mirrors admitted()
      ++rejected;
    }
  }
  server.shutdown();
  EXPECT_GT(rejected, 0) << "queue of 2 should shed load at this rate";
  // Backpressure rejections are specifically queue-full, not shutdown: the
  // two causes are split so this test measures what it claims.
  EXPECT_EQ(server.metrics().counter("rejected_queue_full").value(), rejected);
  EXPECT_EQ(server.metrics().counter("rejected_shutdown").value(), 0);
  EXPECT_EQ(server.metrics().counter("requests_completed").value(), accepted);
  for (auto& f : futures) f.get();  // every accepted request completed
}

TEST_F(RuntimeServing, SubmitAfterShutdownIsRejected) {
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  server.shutdown();
  const auto f = server.try_submit(eval_->scene(0).image, *task_,
                                   ConfigKind::kQuantizedMultiTask);
  EXPECT_FALSE(f.admitted());
  EXPECT_EQ(f.reject, RejectReason::kShuttingDown);
  EXPECT_STREQ(reject_reason_name(f.reject), "shutting_down");
  EXPECT_STREQ(reject_reason_name(RejectReason::kQueueFull), "queue_full");
  EXPECT_STREQ(reject_reason_name(RejectReason::kNone), "none");
  // Counted as a shutdown rejection, not backpressure.
  EXPECT_EQ(server.metrics().counter("rejected_shutdown").value(), 1);
  EXPECT_EQ(server.metrics().counter("rejected_queue_full").value(), 0);
}

TEST_F(RuntimeServing, AdmissionRejectsMisshapedImage) {
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  // Wrong spatial dims: must throw at admission with a clear message, not
  // reach a worker (where stacking it with a well-shaped request would have
  // crashed the process pre-fix).
  try {
    server.try_submit(Tensor({3, 12, 24}), *task_,
                      ConfigKind::kQuantizedMultiTask);
    FAIL() << "mis-shaped image must be rejected at admission";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shape"), std::string::npos) << what;
    EXPECT_NE(what.find("[3, 12, 24]"), std::string::npos) << what;
  }
  // Wrong rank is also an admission failure.
  EXPECT_THROW(server.try_submit(Tensor({24, 24}), *task_,
                                 ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 2);
  // The server keeps serving valid traffic afterwards.
  auto f = server.try_submit(eval_->scene(0).image, *task_,
                             ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f.admitted());
  f.future->get();  // completes
}

TEST_F(RuntimeServing, AdmissionGatesOnCurrentSnapshotUntilInstall) {
  // A task defined *after* the server's snapshot was published is not
  // servable — under either configuration — until a snapshot containing it
  // is installed. Admission says so instead of a worker throwing mid-batch.
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(fw_->publish(), opts);
  const TaskHandle undistilled = fw_->define_task(data::task_by_id(2));
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, undistilled,
                                 ConfigKind::kTaskSpecific),
               std::invalid_argument);
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, undistilled,
                                 ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 2);

  // Publishing and installing a snapshot containing the task makes its
  // quantized path servable instantly (KG matching needs no per-task
  // student); the task-specific path still needs a distilled student.
  server.install_snapshot(fw_->publish());
  EXPECT_TRUE(server.current_snapshot()->has_task(undistilled.id));
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, undistilled,
                                 ConfigKind::kTaskSpecific),
               std::invalid_argument);
  auto f = server.try_submit(eval_->scene(0).image, undistilled,
                             ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f.admitted());
  f.future->get();
  EXPECT_EQ(server.metrics().counter("snapshots_published").value(), 2);
  EXPECT_EQ(server.metrics().counter("tasks_onboarded").value(), 1);
}

TEST_F(RuntimeServing, InstallSnapshotValidatesVersionAndShape) {
  RuntimeOptions opts;
  opts.workers = 1;
  const auto current = fw_->publish();
  InferenceServer server(current, opts);
  EXPECT_THROW(server.install_snapshot(nullptr), std::invalid_argument);
  // Same (or older) version must be refused — installs only move forward.
  EXPECT_THROW(server.install_snapshot(current), std::invalid_argument);
  EXPECT_THROW(server.install_snapshot(*snap_), std::invalid_argument);
  // A newer version with a different input shape breaks the admission
  // contract already handed to clients: refused.
  const auto misshaped = std::make_shared<const core::DeploymentSnapshot>(
      current->version() + 100, Shape{3, 12, 12}, current->tasks(),
      std::map<kg::TaskId, std::shared_ptr<const vit::VitModel>>{}, nullptr,
      core::DetectionPipeline{});
  EXPECT_THROW(server.install_snapshot(misshaped), std::invalid_argument);
  EXPECT_EQ(server.current_snapshot()->version(), current->version());
  // Failed installs never count as publishes.
  EXPECT_EQ(server.metrics().counter("snapshots_published").value(), 1);
}

TEST_F(RuntimeServing, InjectedFaultFailsOnlyItsGroupAndServingContinues) {
  // max_batch 1 → one request per group, so the injector can target request
  // id 3 exactly. The faulted future must carry the exception; every other
  // request — including ones submitted *after* the fault — must complete
  // with results identical to the serial path, and the process must live.
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  std::atomic<int64_t> injections{0};
  opts.fault_injector = [&injections](const FaultSite& site) {
    if (site.first_request_id == 3) {
      injections.fetch_add(1);
      throw std::runtime_error("injected inference fault");
    }
  };
  InferenceServer server(*snap_, opts);

  constexpr int kFirstWave = 8;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kFirstWave; ++i) {
    auto f = server.try_submit(eval_->scene(i % eval_->size()).image, *task_,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  for (int i = 0; i < kFirstWave; ++i) {
    if (i == 3) {
      EXPECT_THROW(futures[static_cast<size_t>(i)].get(), std::runtime_error);
    } else {
      InferenceResult r = futures[static_cast<size_t>(i)].get();
      const auto serial = fw_->detect(eval_->scene(i % eval_->size()).image,
                                      *task_, ConfigKind::kQuantizedMultiTask);
      expect_same_detections(r.detections, serial);
    }
  }

  // Later requests on the same (still running) server complete normally.
  for (int i = 0; i < 4; ++i) {
    auto f = server.try_submit(eval_->scene(i).image, *task_,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    InferenceResult r = f.future->get();
    const auto serial = fw_->detect(eval_->scene(i).image, *task_,
                                    ConfigKind::kQuantizedMultiTask);
    expect_same_detections(r.detections, serial);
  }
  server.shutdown();

  EXPECT_EQ(injections.load(), 1);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 1);
  EXPECT_EQ(server.metrics().counter("requests_completed").value(),
            kFirstWave - 1 + 4);
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 0);
}

TEST_F(RuntimeServing, FaultInGroupedBatchFailsWholeGroupOnly) {
  // One micro-batch mixing both configurations: the injector fails the
  // quantized group; the task-specific group in the same batch succeeds.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_wait_us = 100000;  // keep the batch open until all 4 arrive
  opts.queue_capacity = 64;
  opts.fault_injector = [](const FaultSite& site) {
    if (site.config == ConfigKind::kQuantizedMultiTask) {
      throw std::runtime_error("injected quantized-path fault");
    }
  };
  InferenceServer server(*snap_, opts);
  std::vector<std::future<InferenceResult>> futures;
  const std::vector<ConfigKind> configs{
      ConfigKind::kQuantizedMultiTask, ConfigKind::kTaskSpecific,
      ConfigKind::kQuantizedMultiTask, ConfigKind::kTaskSpecific};
  for (size_t i = 0; i < configs.size(); ++i) {
    auto f = server.try_submit(eval_->scene(static_cast<int64_t>(i)).image,
                               *task_, configs[i]);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  server.shutdown();
  for (size_t i = 0; i < configs.size(); ++i) {
    if (configs[i] == ConfigKind::kQuantizedMultiTask) {
      EXPECT_THROW(futures[i].get(), std::runtime_error);
    } else {
      InferenceResult r = futures[i].get();
      const auto serial =
          fw_->detect(eval_->scene(static_cast<int64_t>(i)).image, *task_,
                      configs[i]);
      expect_same_detections(r.detections, serial);
    }
  }
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 2);
  EXPECT_EQ(server.metrics().counter("requests_completed").value(), 2);
}

TEST_F(RuntimeServing, ExpiredDeadlinesShedAtBatchFormation) {
  // Stall the only worker on request 0 (which carries no deadline), queue
  // two requests with a 2 ms deadline plus one with a generous per-request
  // override, then release the worker well after the short deadlines passed:
  // the two stale requests are shed with DeadlineExceeded, the others serve.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  opts.deadline_us = 2000;  // default deadline for submissions below
  std::atomic<bool> release{false};
  opts.fault_injector = [&release](const FaultSite& site) {
    if (site.first_request_id == 0) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  InferenceServer server(*snap_, opts);

  // Request 0: per-request override 0 = no deadline (stalls the worker).
  auto f0 = server.try_submit(eval_->scene(0).image, *task_,
                              ConfigKind::kQuantizedMultiTask,
                              /*deadline_us=*/0);
  ASSERT_TRUE(f0.admitted());
  // Requests 1 and 2: default 2 ms deadline; expire while the worker stalls.
  auto f1 = server.try_submit(eval_->scene(1).image, *task_,
                              ConfigKind::kQuantizedMultiTask);
  auto f2 = server.try_submit(eval_->scene(2).image, *task_,
                              ConfigKind::kQuantizedMultiTask);
  // Request 3: generous per-request override outlives the stall.
  auto f3 = server.try_submit(eval_->scene(3).image, *task_,
                              ConfigKind::kQuantizedMultiTask,
                              /*deadline_us=*/60'000'000);
  ASSERT_TRUE(f1.admitted() && f2.admitted() && f3.admitted());

  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // > 2 ms
  release.store(true);
  server.shutdown();

  expect_same_detections(f0.future->get().detections,
                         fw_->detect(eval_->scene(0).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  EXPECT_THROW(f1.future->get(), DeadlineExceeded);
  EXPECT_THROW(f2.future->get(), DeadlineExceeded);
  expect_same_detections(f3.future->get().detections,
                         fw_->detect(eval_->scene(3).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 2);
  EXPECT_EQ(server.metrics().counter("requests_completed").value(), 2);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 0);
  // Expired requests record their (real) queue-wait stage and nothing else:
  // 4 queue-wait samples (2 completed + 2 expired), but only the 2 completed
  // requests reach the infer/total stage histograms.
  EXPECT_EQ(server.metrics()
                .histogram(stage_histogram_name(Stage::kQueueWait))
                .snapshot()
                .count,
            4);
  EXPECT_EQ(server.metrics()
                .histogram(stage_histogram_name(Stage::kInfer))
                .snapshot()
                .count,
            2);
  EXPECT_EQ(server.metrics()
                .histogram(stage_histogram_name(Stage::kTotal))
                .snapshot()
                .count,
            2);
}

TEST_F(RuntimeServing, FakeClockMakesStageTimelineExact) {
  // With an injected FakeClock every stage duration is an exact number, not
  // a sleep plus tolerance. One worker, batch size 1: request 0 stalls the
  // worker (gated injector) while we advance the clock around request 1's
  // admission, then request 1's own injector advances the clock between
  // batch formation and inference start.
  FakeClock clock(1000);
  std::atomic<bool> release{false};
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 8;
  opts.clock_us = clock.fn();
  opts.fault_injector = [&release, &clock](const FaultSite& site) {
    if (site.first_request_id == 0) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else if (site.first_request_id == 1) {
      clock.advance_us(40);  // "batch formation took 40 us"
    }
  };
  InferenceServer server(*snap_, opts);

  auto f0 = server.try_submit(eval_->scene(0).image, *task_,
                              ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f0.admitted());
  clock.advance_us(100);  // request 1 admitted at t=1100
  auto f1 = server.try_submit(eval_->scene(1).image, *task_,
                              ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f1.admitted());
  clock.advance_us(250);  // t=1350 when the stalled worker resumes
  release.store(true);
  server.shutdown();

  // Request 1 was picked at exactly t=1350 (the worker was blocked in
  // request 0's injector until after the last main-thread advance), its
  // injector advanced the clock 40 us, and inference itself advanced it 0.
  const InferenceResult r1 = f1.future->get();
  EXPECT_EQ(r1.timeline.admitted_us, 1100);
  EXPECT_EQ(r1.timeline.picked_us, 1350);
  EXPECT_EQ(r1.timeline.infer_start_us, 1390);
  EXPECT_EQ(r1.timeline.infer_end_us, 1390);
  EXPECT_EQ(r1.timeline.snapshot_version, (*snap_)->version());
  EXPECT_EQ(r1.snapshot_version, (*snap_)->version());
  EXPECT_EQ(r1.queue_us, 250.0);
  EXPECT_EQ(r1.batch_formation_us, 40.0);
  EXPECT_EQ(r1.infer_us, 0.0);
  EXPECT_EQ(r1.total_us, 290.0);
  EXPECT_EQ(f0.future->get().request_id, 0);  // request 0 completed too

  // Both requests fed the stage histograms; no clock advance happened
  // during either inference, so the infer stage saw exactly {0, 0}.
  const auto infer_snap = server.metrics()
                              .histogram(stage_histogram_name(Stage::kInfer))
                              .snapshot();
  EXPECT_EQ(infer_snap.count, 2);
  EXPECT_EQ(infer_snap.max, 0.0);
  EXPECT_EQ(server.metrics()
                .histogram(stage_histogram_name(Stage::kTotal))
                .snapshot()
                .count,
            2);
}

TEST_F(RuntimeServing, ProfilingHooksAreTransparent) {
  // The kernel profiling hooks must be invisible when disabled (no section
  // recorded anywhere) and must not perturb results when enabled: the same
  // inputs produce element-wise identical detections hooks-off and hooks-on.
  Tensor images({4, 3, 24, 24});
  for (int64_t i = 0; i < 4; ++i) {
    images.set_index(i, eval_->scene(i).image);
  }
  profile::reset();
  ASSERT_FALSE(profile::enabled());
  const auto off = (*snap_)->infer_batch(images, task_->id,
                                         ConfigKind::kQuantizedMultiTask);
  EXPECT_TRUE(profile::snapshot().empty());

  profile::set_enabled(true);
  const auto on = (*snap_)->infer_batch(images, task_->id,
                                        ConfigKind::kQuantizedMultiTask);
  profile::set_enabled(false);
  const auto sections = profile::snapshot();
  ASSERT_FALSE(sections.empty());
  bool saw_int8_kernel = false;
  bool saw_attention = false;
  for (const auto& s : sections) {
    EXPECT_GT(s.calls, 0);
    EXPECT_GE(s.total_ns, 0);
    if (std::string(s.name) == "int8_kernel") saw_int8_kernel = true;
    if (std::string(s.name) == "attention") saw_attention = true;
  }
  EXPECT_TRUE(saw_int8_kernel);  // the quantized config runs the int8 path
  EXPECT_TRUE(saw_attention);    // and its attention runs the fp32 tile

  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < on.size(); ++i) {
    expect_same_detections(on[i], off[i]);
  }
  profile::reset();
  EXPECT_TRUE(profile::snapshot().empty());
}

TEST_F(RuntimeServing, MultiProducerStressMixedConfigs) {
  // 4 producer threads × both configurations, explicit per-producer seeds
  // choosing scene and configuration. Checks: no lost/duplicate ids, every
  // result element-wise equal to the serial path, metrics consistent.
  RuntimeOptions opts;
  opts.workers = 4;
  opts.max_batch = 6;
  opts.max_wait_us = 300;
  opts.queue_capacity = 256;
  InferenceServer server(*snap_, opts);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 32;
  struct Submitted {
    std::future<InferenceResult> future;
    int64_t scene = 0;
    ConfigKind config = ConfigKind::kQuantizedMultiTask;
  };
  std::vector<std::vector<Submitted>> per_producer(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1000 + static_cast<uint64_t>(p));  // explicit seed per producer
      for (int i = 0; i < kPerProducer; ++i) {
        const int64_t scene = rng.randint(0, eval_->size() - 1);
        const ConfigKind config = rng.bernoulli(0.5)
                                      ? ConfigKind::kTaskSpecific
                                      : ConfigKind::kQuantizedMultiTask;
        while (true) {  // retry on backpressure so all submissions land
          auto f = server.try_submit(eval_->scene(scene).image, *task_, config);
          if (f.admitted()) {
            per_producer[static_cast<size_t>(p)].push_back(
                Submitted{std::move(*f.future), scene, config});
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.shutdown();

  std::set<int64_t> ids;
  for (auto& submissions : per_producer) {
    ASSERT_EQ(submissions.size(), static_cast<size_t>(kPerProducer));
    for (auto& s : submissions) {
      InferenceResult r = s.future.get();
      EXPECT_TRUE(ids.insert(r.request_id).second);
      const auto serial =
          fw_->detect(eval_->scene(s.scene).image, *task_, s.config);
      expect_same_detections(r.detections, serial);
    }
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kProducers * kPerProducer));
  EXPECT_EQ(server.metrics().counter("requests_completed").value(),
            kProducers * kPerProducer);
  const auto batch_sizes = server.metrics().histogram("batch_size").snapshot();
  EXPECT_GE(batch_sizes.max, 1.0);
  EXPECT_LE(batch_sizes.max, static_cast<double>(opts.max_batch));
}

TEST_F(RuntimeServing, ConstMetricsAccessorServesScrapes) {
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  auto f = server.try_submit(eval_->scene(0).image, *task_,
                             ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f.admitted());
  f.future->get();
  // The const overload views the same registry the server writes to…
  const InferenceServer& viewer = server;
  EXPECT_EQ(&viewer.metrics(), &server.metrics());
  // …and feeds the exposition/scrape path without mutable access.
  const std::string text = to_prometheus(collect(viewer.metrics()));
  EXPECT_NE(text.find("itask_requests_completed 1"), std::string::npos);
  EXPECT_NE(text.find("itask_snapshots_published 1"), std::string::npos);
  EXPECT_NE(text.find("itask_tasks_onboarded 0"), std::string::npos);
  // A PeriodicReporter runs off the same const reference.
  std::mutex mu;
  std::vector<std::string> renders;
  {
    PeriodicReporter reporter(viewer.metrics(), std::chrono::milliseconds(5),
                              [&](const std::string& s) {
                                std::lock_guard<std::mutex> lock(mu);
                                renders.push_back(s);
                              });
  }
  ASSERT_FALSE(renders.empty());
  EXPECT_NE(renders.back().find("itask_requests_completed 1"),
            std::string::npos);
}

TEST_F(RuntimeServing, ServesTextDefinedTaskOnQuantizedPath) {
  // A task defined from free-form text only (no ground-truth spec) is a
  // first-class serving citizen on the quantized path: its KG compiles to
  // matcher vectors, a snapshot carries them, and the server admits and
  // serves requests whose relevance comes from KG matching.
  const TaskHandle adhoc =
      fw_->define_task_from_text("find fragile items to pack");
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.max_wait_us = 300;
  InferenceServer server(fw_->publish(), opts);
  // No student was distilled for it: task-specific admission refuses.
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, adhoc,
                                 ConfigKind::kTaskSpecific),
               std::invalid_argument);

  std::vector<std::future<InferenceResult>> futures;
  for (int64_t i = 0; i < eval_->size(); ++i) {
    auto f = server.try_submit(eval_->scene(i).image, adhoc,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  server.shutdown();

  int64_t total_detections = 0;
  for (int64_t i = 0; i < eval_->size(); ++i) {
    InferenceResult r = futures[static_cast<size_t>(i)].get();
    const auto serial = fw_->detect(eval_->scene(i).image, adhoc,
                                    ConfigKind::kQuantizedMultiTask);
    expect_same_detections(r.detections, serial);
    for (const auto& d : r.detections) {
      // KG-matched relevance: the task score is the matcher's, not a
      // relevance head's, and every kept detection passed its threshold.
      EXPECT_GT(d.task_score, 0.0f);
      EXPECT_LE(d.task_score, 1.0f);
      ++total_detections;
    }
  }
  EXPECT_GT(total_detections, 0) << "24 scenes should contain fragile items";
}

TEST_F(RuntimeServing, LiveOnboardingServesThroughPublishes) {
  // The zero-downtime acceptance property: one thread streams requests for
  // an existing task while this thread onboards two new tasks end to end
  // (define → prepare → publish → install). Admission never fails for the
  // streaming task, nothing is shed or failed, every result is element-wise
  // identical to the serial path, and each new task serves correctly the
  // moment its snapshot is installed. Run under -DITASK_SANITIZE=thread.
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.max_wait_us = 300;
  opts.queue_capacity = 128;
  InferenceServer server(fw_->publish(), opts);
  const int64_t base_version = server.current_snapshot()->version();

  struct Streamed {
    std::future<InferenceResult> future;
    int64_t scene = 0;
    ConfigKind config = ConfigKind::kQuantizedMultiTask;
  };
  std::vector<Streamed> streamed;
  std::atomic<bool> stop{false};
  // The streaming thread touches ONLY the server (never the Framework —
  // define/prepare are not thread-safe against detect/evaluate); serial
  // comparisons happen after it joins.
  std::thread streamer([&] {
    Rng rng(4242);
    while (!stop.load()) {
      const int64_t scene = rng.randint(0, eval_->size() - 1);
      const ConfigKind config = rng.bernoulli(0.5)
                                    ? ConfigKind::kTaskSpecific
                                    : ConfigKind::kQuantizedMultiTask;
      auto f = server.try_submit(eval_->scene(scene).image, task_->id, config);
      if (f.admitted()) {
        streamed.push_back(Streamed{std::move(*f.future), scene, config});
      } else {
        // Backpressure is the only acceptable rejection while live.
        EXPECT_EQ(f.reject, RejectReason::kQueueFull);
        std::this_thread::yield();
      }
    }
  });

  // Onboard two tasks while the stream runs. Each becomes servable the
  // instant its snapshot is installed — no pause, no failed requests.
  std::vector<TaskHandle> onboarded;
  for (const int64_t library_task : {3, 4}) {
    TaskHandle task = fw_->define_task(data::task_by_id(library_task));
    fw_->prepare_task_specific(task);
    server.install_snapshot(fw_->publish());
    const auto now = server.current_snapshot();
    EXPECT_TRUE(now->servable(task.id, ConfigKind::kTaskSpecific));
    EXPECT_TRUE(now->servable(task.id, ConfigKind::kQuantizedMultiTask));
    // Requests admitted after the install serve the new task immediately.
    // (Retry on backpressure only — the streamer keeps the queue busy;
    // admission itself must accept the new task from the very first try.)
    for (const ConfigKind config :
         {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
      while (true) {
        auto f = server.try_submit(eval_->scene(0).image, task, config);
        if (!f.admitted()) {
          ASSERT_EQ(f.reject, RejectReason::kQueueFull);
          std::this_thread::yield();
          continue;
        }
        const InferenceResult r = f.future->get();
        EXPECT_GE(r.snapshot_version, now->version());
        break;
      }
    }
    onboarded.push_back(std::move(task));
  }
  stop.store(true);
  streamer.join();
  server.shutdown();

  // Every admitted streamed request completed (futures all fulfilled, no
  // exceptions): zero failures or sheds attributable to the swaps.
  int64_t streamed_before = 0;
  int64_t streamed_after = 0;
  for (auto& s : streamed) {
    InferenceResult r = s.future.get();
    EXPECT_GE(r.snapshot_version, base_version);
    EXPECT_LE(r.snapshot_version, base_version + 2);
    (r.snapshot_version == base_version ? streamed_before : streamed_after)++;
    // Identity holds whichever snapshot version served the request: the
    // streaming task's models were published before onboarding began and
    // prepare_* replaces rather than mutates, so every version serves the
    // same weights for it.
    const auto serial = fw_->detect(eval_->scene(s.scene).image, *task_,
                                    s.config);
    expect_same_detections(r.detections, serial);
  }
  EXPECT_GT(streamed_before + streamed_after, 0);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 0);
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 0);
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 0);
  EXPECT_EQ(server.metrics().counter("snapshots_published").value(), 3);
  EXPECT_EQ(server.metrics().counter("tasks_onboarded").value(), 2);

  // The onboarded tasks' serving results match their serial paths too.
  for (const TaskHandle& task : onboarded) {
    const auto snapshot = server.current_snapshot();
    Tensor images({4, 3, 24, 24});
    for (int64_t i = 0; i < 4; ++i) images.set_index(i, eval_->scene(i).image);
    for (const ConfigKind config :
         {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
      const auto serial = fw_->detect_batch(images, task, config);
      const auto served = snapshot->infer_batch(images, task.id, config);
      ASSERT_EQ(serial.size(), served.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        expect_same_detections(served[i], serial[i]);
      }
    }
  }
}

// ---------------------------------------------------------------- arena ----
// The allocation-free steady-state serving suite. These tests (plus the
// Arena*/ArenaScope*/ScratchVec* units in test_tensor and the workspace
// tests in test_gemm) run first under ASan in CI — filter `*Arena*`.

TEST_F(RuntimeServing, ArenaZeroSteadyStateAllocationsBothConfigs) {
  // The headline contract: after warmup, a serving worker performs ZERO heap
  // allocations inside the arena-scoped hot region (batch stacking + full
  // model inference, INT8 scratch included) — on both deployable
  // configurations. The instrumented operator new at the top of this file
  // feeds the `hot_path_allocs` counter; the only allocations it may see are
  // the thread-local GEMM pack workspaces, which grow once during warmup.
  RuntimeOptions opts;
  opts.workers = 1;          // one worker = one arena = exact accounting
  opts.max_batch = 4;
  opts.max_wait_us = 50000;  // a burst of max_batch same-config requests
                             // always closes as ONE full batch (FIFO pop),
                             // never split by scheduling jitter
  opts.queue_capacity = 64;
  InferenceServer server(*snap_, opts);
  const auto drive = [&](int64_t rounds) {
    for (int64_t r = 0; r < rounds; ++r) {
      for (const ConfigKind config :
           {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
        std::vector<std::future<InferenceResult>> futures;
        for (int64_t i = 0; i < opts.max_batch; ++i) {
          auto f = server.try_submit(eval_->scene(i).image, *task_, config);
          ASSERT_TRUE(f.admitted());
          futures.push_back(std::move(*f.future));
        }
        for (auto& f : futures) {
          // Full homogeneous micro-batches: the worst-case (largest) arena
          // and pack-workspace footprint from the very first round.
          EXPECT_EQ(f.get().batch_size, opts.max_batch);
        }
      }
    }
  };
  drive(2);  // warmup: both configs at the full batch size
  const int64_t warm = server.metrics().counter("hot_path_allocs").value();
  // Warmup cost is bounded — a handful of workspace grows, not per-request
  // churn.
  EXPECT_LE(warm, 64);
  drive(4);  // steady state: 8 more micro-batches across both configs
  EXPECT_EQ(server.metrics().counter("hot_path_allocs").value(), warm)
      << "the serving hot path heap-allocated after warmup";
  // plan_workspace() sized the arena to cover every group: nothing spilled,
  // and the per-group high water stays within the planned capacity.
  EXPECT_EQ(server.metrics().counter("arena_overflow_allocs").value(), 0);
  const auto used = server.metrics().histogram("arena_used_bytes").snapshot();
  EXPECT_EQ(used.count, 12);  // one sample per (config, task) group
  EXPECT_GT(used.max, 0.0);
  EXPECT_LE(used.max,
            static_cast<double>((*snap_)->plan_workspace(opts.max_batch)));
}

TEST_F(RuntimeServing, ArenaResultsElementWiseIdenticalToHeapPathAndSerial) {
  // The arena only moves where intermediates live, never the arithmetic:
  // every request's arena-served detections are element-wise identical to
  // the serial path, whose intermediates all live on the heap. Mixed
  // configs in one stream exercise multiple groups — and arena resets —
  // per micro-batch.
  const auto config_of = [](int64_t i) {
    return (i % 2 == 0) ? ConfigKind::kTaskSpecific
                        : ConfigKind::kQuantizedMultiTask;
  };
  std::vector<std::future<InferenceResult>> futures;
  {
    RuntimeOptions opts;
    opts.workers = 2;
    opts.max_batch = 4;
    opts.max_wait_us = 500;
    opts.queue_capacity = 64;
    InferenceServer server(*snap_, opts);
    for (int64_t i = 0; i < eval_->size(); ++i) {
      auto f = server.try_submit(eval_->scene(i).image, *task_, config_of(i));
      ASSERT_TRUE(f.admitted());
      futures.push_back(std::move(*f.future));
    }
  }  // destructor drains: all futures fulfilled
  for (int64_t i = 0; i < eval_->size(); ++i) {
    InferenceResult r = futures[static_cast<size_t>(i)].get();
    const auto serial =
        fw_->detect(eval_->scene(i).image, *task_, config_of(i));
    expect_same_detections(r.detections, serial);
  }
}

TEST_F(RuntimeServing, ArenaSingletonGroupServesStackedBatchIdentically) {
  // max_batch = 1 forces every group to be a singleton, which the worker
  // stacks into an arena-backed [1, C, H, W] batch like any other group —
  // element-wise identical to the serial path, with no arena overflow.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  InferenceServer server(*snap_, opts);
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    for (int64_t i = 0; i < 8; ++i) {
      auto f = server.try_submit(eval_->scene(i).image, *task_, config);
      ASSERT_TRUE(f.admitted());
      InferenceResult r = f.future->get();
      EXPECT_EQ(r.batch_size, 1);
      const auto serial = fw_->detect(eval_->scene(i).image, *task_, config);
      expect_same_detections(r.detections, serial);
    }
  }
  EXPECT_EQ(server.metrics().counter("arena_overflow_allocs").value(), 0);
}

TEST_F(RuntimeServing, ArenaPlanWorkspaceMeasuresMonotoneCapacity) {
  const int64_t one = (*snap_)->plan_workspace(1);
  const int64_t four = (*snap_)->plan_workspace(4);
  EXPECT_GT(one, 0);
  EXPECT_GE(four, one);  // bigger micro-batches need at least as much
  EXPECT_EQ(one % Arena::kAlign, 0);  // rounded bump accounting
  EXPECT_THROW((*snap_)->plan_workspace(0), std::invalid_argument);
}

// --------------------------------------------------------- metrics merge ----

TEST(Metrics, MergeSnapshotsSumsCountersAndMergesHistogramBuckets) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("x").increment(3);
  b.counter("x").increment(4);
  b.counter("y").increment(1);
  for (const double v : {10.0, 20.0, 30.0}) a.histogram("lat").record(v);
  for (const double v : {1000.0, 2000.0}) b.histogram("lat").record(v);
  b.histogram("only_b").record(5.0);

  const RegistrySnapshot merged = merge_snapshots({a.snapshot(), b.snapshot()});
  const auto counter = [&merged](const char* name) -> int64_t {
    for (const auto& [n, v] : merged.counters) {
      if (n == name) return v;
    }
    return -1;
  };
  EXPECT_EQ(counter("x"), 7);
  EXPECT_EQ(counter("y"), 1);

  const auto histogram =
      [&merged](const char* name) -> Histogram::Snapshot {
    for (const auto& [n, s] : merged.histograms) {
      if (n == name) return s;
    }
    return {};
  };
  const Histogram::Snapshot lat = histogram("lat");
  EXPECT_EQ(lat.count, 5);
  EXPECT_DOUBLE_EQ(lat.sum, 3060.0);
  EXPECT_DOUBLE_EQ(lat.mean, 612.0);
  EXPECT_DOUBLE_EQ(lat.min, 10.0);
  EXPECT_DOUBLE_EQ(lat.max, 2000.0);
  int64_t bucketed = 0;
  double prev_upper = 0.0;
  for (const Histogram::Bucket& bucket : lat.buckets) {
    EXPECT_GT(bucket.upper, prev_upper);  // ascending, deduplicated
    prev_upper = bucket.upper;
    bucketed += bucket.count;
  }
  EXPECT_EQ(bucketed, lat.count);
  // p50 is the 3rd of {10,20,30,1000,2000}: the 30-bucket's upper bound
  // (growth 1.25 → within 25% above 30), never a value from one part only.
  EXPECT_GE(lat.p50, 30.0);
  EXPECT_LE(lat.p50, 40.0);
  EXPECT_DOUBLE_EQ(lat.p99, 2000.0);  // clamped into the observed range
  EXPECT_EQ(histogram("only_b").count, 1);
}

TEST(Metrics, MergeSnapshotsOfOnePartIsIdentity) {
  MetricsRegistry m;
  m.counter("c").increment(9);
  for (int i = 1; i <= 100; ++i) m.histogram("h").record(static_cast<double>(i));
  const RegistrySnapshot original = m.snapshot();
  const RegistrySnapshot merged = merge_snapshots({original});
  ASSERT_EQ(merged.counters.size(), original.counters.size());
  EXPECT_EQ(merged.counters[0], original.counters[0]);
  ASSERT_EQ(merged.histograms.size(), 1u);
  const Histogram::Snapshot& got = merged.histograms[0].second;
  const Histogram::Snapshot& want = original.histograms[0].second;
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.sum, want.sum);
  EXPECT_DOUBLE_EQ(got.min, want.min);
  EXPECT_DOUBLE_EQ(got.max, want.max);
  // Same buckets in → same bucketed quantiles out (identical rule).
  EXPECT_DOUBLE_EQ(got.p50, want.p50);
  EXPECT_DOUBLE_EQ(got.p95, want.p95);
  EXPECT_DOUBLE_EQ(got.p99, want.p99);
  ASSERT_EQ(got.buckets.size(), want.buckets.size());

  const RegistrySnapshot empty = merge_snapshots({});
  EXPECT_TRUE(empty.counters.empty());
  EXPECT_TRUE(empty.histograms.empty());
}

// -------------------------------------------------------------- load gen ----

TEST(LoadGen, SameSeedAndOptionsYieldIdenticalSchedules) {
  LoadGenOptions o;
  o.requests = 256;
  o.rate_rps = 2000.0;
  o.tasks = 4;
  o.tenants = 3;
  o.scenes = 8;
  Rng rng_a(99);
  Rng rng_b(99);
  const auto a = generate_schedule(o, rng_a);
  const auto b = generate_schedule(o, rng_b);
  ASSERT_EQ(a.size(), b.size());
  int64_t prev_arrival = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].task_index, b[i].task_index);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].scene, b[i].scene);
    EXPECT_GE(a[i].arrival_us, prev_arrival);  // open loop: non-decreasing
    prev_arrival = a[i].arrival_us;
    EXPECT_GE(a[i].task_index, 0);
    EXPECT_LT(a[i].task_index, o.tasks);
    EXPECT_GE(a[i].tenant, 0);
    EXPECT_LT(a[i].tenant, o.tenants);
    EXPECT_GE(a[i].scene, 0);
    EXPECT_LT(a[i].scene, o.scenes);
  }
  // A different seed moves the schedule.
  Rng rng_c(100);
  const auto c = generate_schedule(o, rng_c);
  EXPECT_NE(c.back().arrival_us, a.back().arrival_us);
}

TEST(LoadGen, PoissonArrivalsMatchTheTargetRate) {
  LoadGenOptions o;
  o.requests = 2000;
  o.rate_rps = 1000.0;  // expected span: 2,000,000 us
  Rng rng(7);
  const auto schedule = generate_schedule(o, rng);
  const int64_t span = schedule.back().arrival_us;
  EXPECT_GT(span, 1'600'000);
  EXPECT_LT(span, 2'400'000);
}

TEST(LoadGen, ZipfPopularityConcentratesOnHotTasksUniformWhenZero) {
  LoadGenOptions o;
  o.requests = 4000;
  o.rate_rps = 10000.0;
  o.tasks = 8;
  o.zipf_s = 1.2;
  Rng rng(11);
  std::vector<int64_t> counts(8, 0);
  for (const GeneratedRequest& r : generate_schedule(o, rng)) {
    ++counts[static_cast<size_t>(r.task_index)];
  }
  // Rank 0 dominates and the tail is thin (s = 1.2 puts ~43% on rank 0).
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(), 0);
  EXPECT_GT(counts[0], 4 * counts[7]);

  o.zipf_s = 0.0;  // degenerates to uniform
  Rng uniform_rng(11);
  std::vector<int64_t> flat(8, 0);
  for (const GeneratedRequest& r : generate_schedule(o, uniform_rng)) {
    ++flat[static_cast<size_t>(r.task_index)];
  }
  const int64_t lo = *std::min_element(flat.begin(), flat.end());
  const int64_t hi = *std::max_element(flat.begin(), flat.end());
  EXPECT_LT(hi, 2 * lo);
}

TEST(LoadGen, MissionSwitchStormsRotateTheHotTask) {
  LoadGenOptions o;
  o.requests = 4000;
  o.rate_rps = 2000.0;       // span ≈ 2s
  o.tasks = 4;
  o.zipf_s = 1.5;
  o.storm_period_us = 500'000;  // ≈ 4 storm windows
  Rng rng(13);
  std::map<int64_t, std::vector<int64_t>> window_counts;  // window → per-task
  for (const GeneratedRequest& r : generate_schedule(o, rng)) {
    auto& counts = window_counts[r.arrival_us / o.storm_period_us];
    if (counts.empty()) counts.assign(4, 0);
    ++counts[static_cast<size_t>(r.task_index)];
  }
  ASSERT_GE(window_counts.size(), 3u);
  int64_t evaluated = 0;
  for (const auto& [window, counts] : window_counts) {
    const int64_t total =
        counts[0] + counts[1] + counts[2] + counts[3];
    if (total < 200) continue;  // the last window may be a sliver
    // Rank 0 rotates: the hottest task in window w is task (w mod tasks).
    const auto hottest =
        std::max_element(counts.begin(), counts.end()) - counts.begin();
    EXPECT_EQ(hottest, window % 4) << "window " << window;
    ++evaluated;
  }
  EXPECT_GE(evaluated, 3);
}

TEST(LoadGen, BurstyArrivalsClusterInsideTheBurstPhase) {
  LoadGenOptions o;
  o.requests = 4000;
  o.rate_rps = 1000.0;
  o.arrivals = ArrivalProcess::kBursty;
  o.burst_factor = 4.0;
  o.burst_period_us = 100'000;
  o.burst_duty = 0.25;
  const auto burst_fraction = [&o](const std::vector<GeneratedRequest>& s) {
    int64_t in_burst = 0;
    for (const GeneratedRequest& r : s) {
      const int64_t phase = r.arrival_us % o.burst_period_us;
      if (static_cast<double>(phase) <
          o.burst_duty * static_cast<double>(o.burst_period_us)) {
        ++in_burst;
      }
    }
    return static_cast<double>(in_burst) / static_cast<double>(s.size());
  };
  Rng bursty_rng(17);
  const double bursty = burst_fraction(generate_schedule(o, bursty_rng));
  o.arrivals = ArrivalProcess::kPoisson;
  Rng poisson_rng(17);
  const double poisson = burst_fraction(generate_schedule(o, poisson_rng));
  // 4× on / 0.25 duty puts ~84% of arrivals in the burst quarter of each
  // cycle; a Poisson stream spreads ~25% there.
  EXPECT_GT(bursty, 0.6);
  EXPECT_LT(poisson, 0.4);
  EXPECT_EQ(arrival_process_name(ArrivalProcess::kBursty),
            std::string("bursty"));
  EXPECT_EQ(arrival_process_name(ArrivalProcess::kPoisson),
            std::string("poisson"));
}

TEST(LoadGen, ValidatesArguments) {
  Rng rng(1);
  LoadGenOptions o;
  o.requests = 0;
  EXPECT_THROW(generate_schedule(o, rng), std::invalid_argument);
  o = {};
  o.rate_rps = 0.0;
  EXPECT_THROW(generate_schedule(o, rng), std::invalid_argument);
  o = {};
  o.tasks = 0;
  EXPECT_THROW(generate_schedule(o, rng), std::invalid_argument);
  o = {};
  o.zipf_s = -0.5;
  EXPECT_THROW(generate_schedule(o, rng), std::invalid_argument);
  o = {};
  o.arrivals = ArrivalProcess::kBursty;
  o.burst_duty = 1.0;
  EXPECT_THROW(generate_schedule(o, rng), std::invalid_argument);
  o = {};
  o.arrivals = ArrivalProcess::kBursty;
  o.burst_factor = 0.5;
  EXPECT_THROW(generate_schedule(o, rng), std::invalid_argument);
}

// ---------------------------------------------------------- fleet router ----

TEST(FleetRouter, RendezvousPlacementIsDeterministicAndCoversAllShards) {
  const FleetRouter router(4, 2);
  EXPECT_EQ(router.shards(), 4);
  EXPECT_EQ(router.replication(), 2);
  std::vector<int64_t> primary_load(4, 0);
  for (int64_t t = 0; t < 64; ++t) {
    const kg::TaskId id{t};
    const std::vector<int64_t> replicas = router.replicas(id);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_NE(replicas[0], replicas[1]);  // distinct shards
    for (const int64_t s : replicas) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, 4);
    }
    // Placement is a pure function of (task, geometry): stable across calls
    // and across router instances.
    EXPECT_EQ(router.replicas(id), replicas);
    EXPECT_EQ(FleetRouter(4, 2).replicas(id), replicas);
    ++primary_load[static_cast<size_t>(replicas[0])];
  }
  // Rendezvous balance: every shard is primary for some tasks.
  for (int64_t s = 0; s < 4; ++s) {
    EXPECT_GT(primary_load[static_cast<size_t>(s)], 0) << "shard " << s;
  }
}

TEST(FleetRouter, RouteCyclesDeterministicallyThroughReplicaSlots) {
  const FleetRouter router(4, 2);
  const kg::TaskId id{11};
  const std::vector<int64_t> replicas = router.replicas(id);
  EXPECT_EQ(router.route(id, 0), replicas[0]);
  EXPECT_EQ(router.route(id, 1), replicas[1]);
  EXPECT_EQ(router.route(id, 2), replicas[0]);  // period == replication
  const FleetRouter single(4, 1);
  EXPECT_EQ(single.route(id, 0), single.route(id, 7));  // strict affinity
}

TEST(FleetRouter, GrowingTheFleetOnlyMovesTasksOntoTheNewShard) {
  // The rendezvous property that makes resharding cheap: adding shard N
  // never moves a task between the existing shards — a task either keeps
  // its primary or rendezvouses onto the new shard.
  const FleetRouter before(4, 1);
  const FleetRouter after(5, 1);
  int64_t moved = 0;
  for (int64_t t = 0; t < 128; ++t) {
    const kg::TaskId id{t};
    const int64_t old_primary = before.replicas(id)[0];
    const int64_t new_primary = after.replicas(id)[0];
    if (new_primary != old_primary) {
      EXPECT_EQ(new_primary, 4) << task_id_to_string(id);
      ++moved;
    }
  }
  // ~1/5 of tasks should rendezvous onto the new shard — movement happens,
  // but never between survivors.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 64);
}

TEST(FleetRouter, ValidatesAndClamps) {
  EXPECT_THROW(FleetRouter(0, 1), std::invalid_argument);
  EXPECT_THROW(FleetRouter(2, 0), std::invalid_argument);
  EXPECT_EQ(FleetRouter(2, 8).replication(), 2);  // clamped to shards
  const FleetRouter router(2, 1);
  EXPECT_THROW(router.route(kg::TaskId{1}, -1), std::invalid_argument);
  EXPECT_THROW(kg::task_route_hash(kg::TaskId{}, 0), std::invalid_argument);
  // Distinct salts decorrelate: one task does not hash identically across
  // shard salts (the property rendezvous ranking rests on).
  EXPECT_NE(kg::task_route_hash(kg::TaskId{3}, 0),
            kg::task_route_hash(kg::TaskId{3}, 1));
}

// ------------------------------------------------------------- fleet ----
// The sharded serving tier. These suites (plus FleetRouter/LoadGen above)
// run first under TSan in CI — filters `RuntimeServing.Fleet*` etc.

TEST_F(RuntimeServing, AdmissionCountersCachedWithStableExposition) {
  // The hot-path counters are resolved once at construction now; the
  // exposition output must be unchanged in names and values — and every
  // admission counter (including the new snapshot_version_skew) visible
  // from the very first scrape, before any traffic touches it.
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(fw_->publish(), opts);
  const std::string cold = to_prometheus(collect(server.metrics()));
  for (const char* line :
       {"itask_requests_submitted 0", "itask_requests_invalid 0",
        "itask_rejected_queue_full 0", "itask_rejected_shutdown 0",
        "itask_snapshot_version_skew 0", "itask_snapshots_published 1",
        "itask_tasks_onboarded 0"}) {
    EXPECT_NE(cold.find(line), std::string::npos) << line;
  }

  std::vector<std::future<InferenceResult>> futures;
  for (int64_t i = 0; i < 4; ++i) {
    auto f = server.try_submit(eval_->scene(i).image, *task_,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, kg::TaskId{999999},
                                 ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  for (auto& f : futures) f.get();
  server.shutdown();
  auto rejected = server.try_submit(eval_->scene(0).image, *task_,
                                    ConfigKind::kQuantizedMultiTask);
  EXPECT_EQ(rejected.reject, RejectReason::kShuttingDown);

  const std::string warm = to_prometheus(collect(server.metrics()));
  for (const char* line :
       {"itask_requests_submitted 4", "itask_requests_invalid 1",
        "itask_rejected_queue_full 0", "itask_rejected_shutdown 1",
        "itask_requests_completed 4", "itask_snapshot_version_skew 0"}) {
    EXPECT_NE(warm.find(line), std::string::npos) << line;
  }
}

TEST_F(RuntimeServing, SnapshotVersionSkewCountedWhenInstallRacesQueue) {
  // try_submit validates against the snapshot current at admission; the
  // worker may acquire a newer one. Stall the worker inside request 0's
  // inference, admit request 1, install a newer snapshot, release: request
  // 1 is served under the new version but was admitted under the old — one
  // counted skew, zero failures (tables only grow, weights identical).
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int64_t> groups_seen{0};
  opts.fault_injector = [&gate, &groups_seen](const FaultSite&) {
    if (groups_seen.fetch_add(1) == 0) gate.wait();  // stall first group only
  };
  const auto before = fw_->publish();
  InferenceServer server(before, opts);

  auto f0 = server.try_submit(eval_->scene(0).image, *task_,
                              ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f0.admitted());
  while (groups_seen.load() == 0) std::this_thread::yield();
  // Worker is now mid-batch holding `before`; admit under `before`, then
  // install the newer snapshot before the worker can pick request 1 up.
  auto f1 = server.try_submit(eval_->scene(1).image, *task_,
                              ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f1.admitted());
  server.install_snapshot(fw_->publish());
  release.set_value();

  const InferenceResult r0 = f0.future->get();
  const InferenceResult r1 = f1.future->get();
  EXPECT_EQ(r0.snapshot_version, before->version());
  EXPECT_EQ(r1.snapshot_version, before->version() + 1);
  server.shutdown();
  EXPECT_EQ(server.metrics().counter("snapshot_version_skew").value(), 1);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 0);
  // Results stay element-wise identical whichever version served them.
  expect_same_detections(r1.detections,
                         fw_->detect(eval_->scene(1).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
}

TEST_F(RuntimeServing, FleetDetectionsIdenticalToSerialAtAnyShardCount) {
  // The fleet-level determinism contract: the same request set produces
  // detections element-wise identical to the serial pipeline at every
  // shard count and replication — routing and sharding never change a bit.
  const auto snapshot = fw_->publish();
  for (const int64_t shards : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    FleetOptions fo;
    fo.shards = shards;
    fo.replication = 2;  // clamped to 1 when shards == 1
    fo.shard_options.workers = 2;
    fo.shard_options.max_batch = 4;
    fo.shard_options.max_wait_us = 300;
    InferenceFleet fleet(snapshot, fo);
    const std::vector<int64_t> replicas = fleet.router().replicas(task_->id);

    const auto config_of = [](int64_t i) {
      return (i % 2 == 0) ? ConfigKind::kTaskSpecific
                          : ConfigKind::kQuantizedMultiTask;
    };
    std::vector<std::future<InferenceResult>> futures;
    for (int64_t i = 0; i < eval_->size(); ++i) {
      SubmitResult r = fleet.try_submit(eval_->scene(i).image, task_->id,
                                        config_of(i), /*tenant=*/0);
      ASSERT_TRUE(r.admitted());
      // Routed within the task's replica set, never sprayed elsewhere.
      EXPECT_NE(std::find(replicas.begin(), replicas.end(), r.shard),
                replicas.end());
      futures.push_back(std::move(*r.future));
    }
    fleet.shutdown();
    for (int64_t i = 0; i < eval_->size(); ++i) {
      const InferenceResult r = futures[static_cast<size_t>(i)].get();
      expect_same_detections(
          r.detections,
          fw_->detect(eval_->scene(i).image, *task_, config_of(i)));
    }
    // Single-task traffic with replication 2 spreads across exactly the
    // replica set (round-robin rotation), nothing else.
    int64_t shard_submitted = 0;
    for (const int64_t s : replicas) {
      shard_submitted +=
          fleet.shard(s).metrics().counter("requests_submitted").value();
    }
    EXPECT_EQ(shard_submitted, eval_->size());
    EXPECT_EQ(fleet.metrics().counter("fleet_admitted").value(),
              eval_->size());
  }
}

TEST_F(RuntimeServing, FleetQuotaRejectionAccountingAndWindowReset) {
  FleetOptions fo;
  fo.shards = 2;
  fo.tenant_quota = 3;
  fo.quota_window = 8;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(fw_->publish(), fo);
  std::vector<std::future<InferenceResult>> futures;
  const auto submit = [&](int64_t tenant) {
    SubmitResult r =
        fleet.try_submit(eval_->scene(0).image, task_->id,
                         ConfigKind::kQuantizedMultiTask, tenant);
    if (r.admitted()) futures.push_back(std::move(*r.future));
    return r.reject;
  };
  // Tenant 7 saturates its quota: 3 admitted, then kTenantQuota.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(submit(7), RejectReason::kNone);
  EXPECT_EQ(submit(7), RejectReason::kTenantQuota);
  EXPECT_EQ(submit(7), RejectReason::kTenantQuota);
  EXPECT_EQ(fleet.tenant_window_admissions(7), 3);
  // Fairness: a light tenant keeps landing while 7 is capped.
  EXPECT_EQ(submit(8), RejectReason::kNone);
  EXPECT_EQ(fleet.tenant_window_admissions(8), 1);
  // Attempts so far: 6. Two more rejected attempts fill the window of 8;
  // the next attempt rolls it and tenant 7's fairness counter resets.
  EXPECT_EQ(submit(7), RejectReason::kTenantQuota);
  EXPECT_EQ(submit(7), RejectReason::kTenantQuota);
  EXPECT_EQ(submit(7), RejectReason::kNone);  // fresh window
  EXPECT_EQ(fleet.tenant_window_admissions(7), 1);

  EXPECT_EQ(fleet.metrics().counter("fleet_quota_rejected").value(), 4);
  EXPECT_EQ(fleet.metrics().counter("fleet_admitted").value(), 5);
  EXPECT_EQ(fleet.metrics().counter("fleet_submitted").value(), 9);
  EXPECT_EQ(fleet.metrics().counter("fleet_fairness_window_resets").value(),
            1);
  fleet.shutdown();
  for (auto& f : futures) f.get();  // every admitted request completed
  // Quota rejections never reached a shard: per-shard admission counts add
  // up to exactly the fleet's admissions.
  EXPECT_EQ(fleet.shard(0).metrics().counter("requests_submitted").value() +
                fleet.shard(1).metrics().counter("requests_submitted").value(),
            5);
}

TEST_F(RuntimeServing, FleetStagedRolloutFailureRollsBackAndResumes) {
  const auto v1 = fw_->publish();
  FleetOptions fo;
  fo.shards = 3;
  fo.shard_options.workers = 1;
  std::atomic<int64_t> injected{0};
  fo.rollout_hook = [&injected](int64_t shard, int64_t /*version*/) {
    // Fail exactly the first attempt to install on shard 1.
    if (shard == 1 && injected.fetch_add(1) == 0) {
      throw std::runtime_error("injected mid-rollout shard failure");
    }
  };
  InferenceFleet fleet(v1, fo);

  const TaskHandle fresh = fw_->define_task(data::task_by_id(5));
  const auto v2 = fw_->publish();
  const RolloutResult first = fleet.install_snapshot(v2);
  EXPECT_FALSE(first.complete());
  EXPECT_EQ(first.version, v2->version());
  EXPECT_EQ(first.failed_shard, 1);
  EXPECT_EQ(first.installed, 1);  // shard 0 took it before the failure
  EXPECT_NE(first.error.find("injected"), std::string::npos);
  // The rollback state: mixed versions, shard 0 new, shards 1-2 old.
  EXPECT_EQ(fleet.shard_versions(),
            (std::vector<int64_t>{v2->version(), v1->version(),
                                  v1->version()}));

  // Mixed versions keep serving the old task everywhere (skew tolerance).
  SubmitResult old_task = fleet.try_submit(
      eval_->scene(0).image, task_->id, ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(old_task.admitted());
  expect_same_detections(old_task.future->get().detections,
                         fw_->detect(eval_->scene(0).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  // The new task routes only to replicas that already took v2: servable iff
  // its (replication 1) primary is shard 0, a deterministic router fact.
  const int64_t fresh_primary = fleet.router().replicas(fresh.id)[0];
  if (fresh_primary == 0) {
    SubmitResult r = fleet.try_submit(eval_->scene(0).image, fresh.id,
                                      ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(r.admitted());
    r.future->get();
  } else {
    EXPECT_THROW(fleet.try_submit(eval_->scene(0).image, fresh.id,
                                  ConfigKind::kQuantizedMultiTask),
                 std::invalid_argument);
  }

  // Retrying the same snapshot resumes at the failed shard (shard 0 is
  // already current and skipped) and completes the rollout.
  const RolloutResult second = fleet.install_snapshot(v2);
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.already_current, 1);
  EXPECT_EQ(second.installed, 2);
  EXPECT_EQ(fleet.shard_versions(),
            (std::vector<int64_t>{v2->version(), v2->version(),
                                  v2->version()}));
  SubmitResult now_servable = fleet.try_submit(
      eval_->scene(1).image, fresh.id, ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(now_servable.admitted());
  expect_same_detections(now_servable.future->get().detections,
                         fw_->detect(eval_->scene(1).image, fresh,
                                     ConfigKind::kQuantizedMultiTask));

  EXPECT_EQ(fleet.metrics().counter("fleet_rollouts_started").value(), 2);
  EXPECT_EQ(fleet.metrics().counter("fleet_rollouts_failed").value(), 1);
  EXPECT_EQ(fleet.metrics().counter("fleet_rollouts_completed").value(), 1);
  EXPECT_EQ(fleet.metrics().counter("fleet_shard_installs").value(), 3);

  // The skew-tolerance contract gate: a snapshot that DROPS a served task
  // is refused before any shard changes (task tables only grow).
  const auto stripped = std::make_shared<const core::DeploymentSnapshot>(
      v2->version() + 100, v2->expected_input_shape(), kg::TaskTable{},
      std::map<kg::TaskId, std::shared_ptr<const vit::VitModel>>{}, nullptr,
      core::DetectionPipeline{});
  EXPECT_THROW(fleet.install_snapshot(stripped), std::invalid_argument);
  EXPECT_THROW(fleet.install_snapshot(nullptr), std::invalid_argument);
  EXPECT_EQ(fleet.shard_versions(),
            (std::vector<int64_t>{v2->version(), v2->version(),
                                  v2->version()}));
}

TEST_F(RuntimeServing, FleetServesIdenticallyThroughStagedRollout) {
  // The fleet twin of LiveOnboardingServesThroughPublishes: one thread
  // streams mixed-config requests while this thread runs a staged rollout
  // (slowed per shard to widen the mixed-version window). Every streamed
  // result must be element-wise identical to the serial path whatever
  // version/shard served it, with zero failures — determinism at any
  // rollout interleaving. Run under -DITASK_SANITIZE=thread.
  FleetOptions fo;
  fo.shards = 2;
  fo.shard_options.workers = 2;
  fo.shard_options.max_batch = 4;
  fo.shard_options.max_wait_us = 300;
  fo.shard_options.queue_capacity = 128;
  fo.rollout_hook = [](int64_t /*shard*/, int64_t /*version*/) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  };
  InferenceFleet fleet(fw_->publish(), fo);

  struct Streamed {
    std::future<InferenceResult> future;
    int64_t scene = 0;
    ConfigKind config = ConfigKind::kQuantizedMultiTask;
  };
  std::vector<Streamed> streamed;
  std::atomic<bool> stop{false};
  std::thread streamer([&] {
    Rng rng(777);
    while (!stop.load()) {
      const int64_t scene = rng.randint(0, eval_->size() - 1);
      const ConfigKind config = rng.bernoulli(0.5)
                                    ? ConfigKind::kTaskSpecific
                                    : ConfigKind::kQuantizedMultiTask;
      SubmitResult r =
          fleet.try_submit(eval_->scene(scene).image, task_->id, config);
      if (r.admitted()) {
        streamed.push_back(Streamed{std::move(*r.future), scene, config});
      } else {
        EXPECT_EQ(r.reject, RejectReason::kQueueFull);
        std::this_thread::yield();
      }
    }
  });

  const TaskHandle stormed =
      fw_->define_task_from_text("find bright markers during the rollout");
  const auto next = fw_->publish();
  const RolloutResult rollout = fleet.install_snapshot(next);
  EXPECT_TRUE(rollout.complete());
  EXPECT_EQ(rollout.installed, 2);
  stop.store(true);
  streamer.join();
  fleet.shutdown();

  EXPECT_EQ(fleet.shard_versions(),
            (std::vector<int64_t>{next->version(), next->version()}));
  EXPECT_TRUE(
      fleet.shard(0).current_snapshot()->has_task(stormed.id));
  for (Streamed& s : streamed) {
    const InferenceResult r = s.future.get();
    expect_same_detections(
        r.detections, fw_->detect(eval_->scene(s.scene).image, *task_,
                                  s.config));
  }
  EXPECT_GT(streamed.size(), 0u);
  for (const int64_t s : {int64_t{0}, int64_t{1}}) {
    EXPECT_EQ(fleet.shard(s).metrics().counter("requests_failed").value(), 0);
    EXPECT_EQ(fleet.shard(s).metrics().counter("requests_invalid").value(),
              0);
  }
  EXPECT_EQ(fleet.metrics().counter("fleet_requests_invalid").value(), 0);
}

TEST_F(RuntimeServing, FleetMergedScrapeAggregatesShardAndFleetRegistries) {
  FleetOptions fo;
  fo.shards = 2;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(fw_->publish(), fo);
  std::vector<std::future<InferenceResult>> futures;
  for (int64_t i = 0; i < 8; ++i) {
    SubmitResult r = fleet.try_submit(
        eval_->scene(i).image, task_->id, ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(r.admitted());
    futures.push_back(std::move(*r.future));
  }
  for (auto& f : futures) f.get();
  fleet.shutdown();

  const RegistrySnapshot merged = fleet.merged_metrics();
  const auto counter = [&merged](const char* name) -> int64_t {
    for (const auto& [n, v] : merged.counters) {
      if (n == name) return v;
    }
    return -1;
  };
  // Shard registries summed…
  EXPECT_EQ(counter("requests_completed"), 8);
  EXPECT_EQ(counter("requests_submitted"), 8);
  EXPECT_EQ(counter("snapshots_published"), 2);  // one per shard
  // …and the fleet's own counters ride in the same scrape.
  EXPECT_EQ(counter("fleet_admitted"), 8);
  EXPECT_EQ(counter("fleet_submitted"), 8);
  const auto histogram =
      [&merged](const char* name) -> Histogram::Snapshot {
    for (const auto& [n, s] : merged.histograms) {
      if (n == name) return s;
    }
    return {};
  };
  EXPECT_EQ(histogram("stage_total_us").count, 8);  // across both shards

  // The merged snapshot renders through the existing exposition unchanged —
  // one Prometheus scrape for the whole fleet.
  const std::string text = to_prometheus(ExpositionData{merged, {}});
  EXPECT_NE(text.find("itask_requests_completed 8"), std::string::npos);
  EXPECT_NE(text.find("itask_fleet_admitted 8"), std::string::npos);
  EXPECT_NE(text.find("itask_stage_total_us_count 8"), std::string::npos);
}

TEST_F(RuntimeServing, FleetValidatesOptionsAndShardAccess) {
  const auto snapshot = fw_->publish();
  FleetOptions fo;
  fo.shards = 0;
  EXPECT_THROW(InferenceFleet(snapshot, fo), std::invalid_argument);
  fo = {};
  fo.tenant_quota = -1;
  EXPECT_THROW(InferenceFleet(snapshot, fo), std::invalid_argument);
  fo = {};
  fo.quota_window = 0;
  EXPECT_THROW(InferenceFleet(snapshot, fo), std::invalid_argument);
  fo = {};
  EXPECT_THROW(InferenceFleet(nullptr, fo), std::invalid_argument);

  fo = {};
  fo.shards = 2;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(snapshot, fo);
  EXPECT_THROW(fleet.shard(-1), std::invalid_argument);
  EXPECT_THROW(fleet.shard(2), std::invalid_argument);
  fleet.shutdown();  // idempotent, and admission reports shutdown after
  fleet.shutdown();
  const SubmitResult r = fleet.try_submit(
      eval_->scene(0).image, task_->id, ConfigKind::kQuantizedMultiTask);
  EXPECT_FALSE(r.admitted());
  EXPECT_EQ(r.reject, RejectReason::kShuttingDown);
  EXPECT_EQ(reject_reason_name(RejectReason::kTenantQuota),
            std::string("tenant_quota"));
}

// ------------------------------------------------------ cross-view fusion ----

// Synthetic detection for the fusion unit tests: everything fusion reads,
// with distinct per-field values so byte-identity checks are meaningful.
detect::Detection make_det(float confidence, int64_t cls, float cx, float cy,
                           float w, float h, int64_t cell = 0) {
  detect::Detection d;
  d.box = {cx, cy, w, h};
  d.cell = cell;
  d.predicted_class = cls;
  d.objectness = confidence * 0.9f;
  d.task_score = confidence * 0.8f;
  d.confidence = confidence;
  d.attr_probs = Tensor({2}, {confidence * 0.5f, 1.0f - confidence * 0.5f});
  d.class_probs = Tensor({3}, {0.1f, 0.2f, 0.7f});
  return d;
}

void expect_byte_identical_fused(const std::vector<detect::Detection>& a,
                                 const std::vector<detect::Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell, b[i].cell);
    EXPECT_EQ(a[i].predicted_class, b[i].predicted_class);
    EXPECT_EQ(a[i].objectness, b[i].objectness);
    EXPECT_EQ(a[i].task_score, b[i].task_score);
    EXPECT_EQ(a[i].confidence, b[i].confidence);
    EXPECT_EQ(a[i].box.cx, b[i].box.cx);
    EXPECT_EQ(a[i].box.cy, b[i].box.cy);
    EXPECT_EQ(a[i].box.w, b[i].box.w);
    EXPECT_EQ(a[i].box.h, b[i].box.h);
  }
}

TEST(Fusion, InvariantToViewArrivalOrderAndEqualConfidenceShuffles) {
  // Three views of the same scene: a well-supported object near (8, 8), a
  // second object near (18, 6), and equal-confidence near-duplicates within
  // one view — the tie case an unstable order would scramble. Fused output
  // must be byte-identical under any permutation of views AND any
  // permutation of the detections inside each view.
  std::vector<std::vector<detect::Detection>> views(3);
  views[0] = {make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f, 5),
              make_det(0.6f, 2, 18.0f, 6.0f, 4.0f, 4.0f, 7),
              make_det(0.6f, 2, 18.5f, 6.0f, 4.0f, 4.0f, 8)};  // equal conf
  views[1] = {make_det(0.8f, 1, 8.5f, 8.2f, 6.0f, 6.0f, 5),
              make_det(0.55f, 2, 18.2f, 6.1f, 4.0f, 4.0f, 7)};
  views[2] = {make_det(0.85f, 1, 7.8f, 8.1f, 6.2f, 6.0f, 5)};

  const detect::FusionOptions options;
  const auto baseline = detect::fuse_views(views, options);
  ASSERT_FALSE(baseline.empty());

  Rng rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::vector<detect::Detection>> shuffled = views;
    rng.shuffle(shuffled);                           // view arrival order
    for (auto& view : shuffled) rng.shuffle(view);   // within-view order
    expect_byte_identical_fused(detect::fuse_views(shuffled, options),
                                baseline);
  }
}

TEST(Fusion, SupportDividesByViewCountAndMinViewsDropsPhantoms) {
  // An object seen by all 3 views keeps its confidence; a single-view
  // phantom is divided down by the missing evidence; min_views = 2 removes
  // it entirely.
  std::vector<std::vector<detect::Detection>> views(3);
  views[0] = {make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f),
              make_det(0.9f, 2, 18.0f, 18.0f, 4.0f, 4.0f)};  // phantom
  views[1] = {make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f)};
  views[2] = {make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f)};

  const auto fused = detect::fuse_views(views);
  ASSERT_EQ(fused.size(), 2u);
  // detection_order: the supported object (0.9) ranks above the phantom.
  EXPECT_EQ(fused[0].predicted_class, 1);
  EXPECT_FLOAT_EQ(fused[0].confidence, 0.9f);  // (0.9 * 3) / 3
  EXPECT_EQ(fused[1].predicted_class, 2);
  EXPECT_FLOAT_EQ(fused[1].confidence, 0.3f);  // (0.9 * 1) / 3
  // Identical per-view boxes: the weighted mean must reproduce them exactly.
  EXPECT_FLOAT_EQ(fused[0].box.cx, 8.0f);
  EXPECT_FLOAT_EQ(fused[0].box.w, 6.0f);

  detect::FusionOptions strict;
  strict.min_views = 2;
  const auto supported = detect::fuse_views(views, strict);
  ASSERT_EQ(supported.size(), 1u);
  EXPECT_EQ(supported[0].predicted_class, 1);
}

TEST(Fusion, SingleViewDegeneratesToNms) {
  // K = 1 must reproduce the single-view pipeline bit-for-bit: fusion is
  // NMS plus a division by K = 1. (min_views clamps to the view count, so
  // even min_views = 3 cannot drop everything.)
  std::vector<detect::Detection> view = {
      make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f, 5),
      make_det(0.7f, 1, 8.4f, 8.2f, 6.0f, 6.0f, 6),   // suppressed by NMS
      make_det(0.6f, 2, 18.0f, 6.0f, 4.0f, 4.0f, 7)};
  detect::FusionOptions options;
  options.min_views = 3;  // clamped to K = 1
  expect_byte_identical_fused(detect::fuse_views({view}, options),
                              detect::nms(view, options.nms_iou));
}

TEST(Fusion, JitteredViewsSeededCleanFirstViewAndValidation) {
  Tensor image({3, 4, 4});
  Rng fill(5);
  for (float& v : image.data()) v = fill.uniform(0.0f, 1.0f);

  const auto views = detect::jittered_views(image, 3, 0.05f, 77);
  ASSERT_EQ(views.size(), 3u);
  // View 0 is the clean image; later views differ (sigma > 0).
  EXPECT_EQ(views[0].data()[0], image.data()[0]);
  EXPECT_NE(views[1].data()[0], image.data()[0]);
  // Same (image, K, sigma, seed) → byte-identical views on every call: the
  // property that lets serial, single-server, and fleet paths materialize
  // the same group request.
  const auto again = detect::jittered_views(image, 3, 0.05f, 77);
  for (size_t v = 0; v < views.size(); ++v) {
    const auto a = views[v].data();
    const auto b = again[v].data();
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }

  EXPECT_THROW(detect::jittered_views(image, 0, 0.05f, 1),
               std::invalid_argument);
  EXPECT_THROW(detect::jittered_views(image, 2, -1.0f, 1),
               std::invalid_argument);
  EXPECT_THROW(detect::fuse_views({}), std::invalid_argument);
  detect::FusionOptions bad;
  bad.merge_iou = 1.0f;
  EXPECT_THROW(detect::fuse_views({{}}, bad), std::invalid_argument);
  bad = {};
  bad.min_views = 0;
  EXPECT_THROW(detect::fuse_views({{}}, bad), std::invalid_argument);
}

TEST(BoundedQueue, PushAllAdmitsAtomicallyOrNotAtAll) {
  BoundedQueue<int> q(4);
  std::vector<int> three{1, 2, 3};
  EXPECT_EQ(q.push_all(three), PushResult::kOk);
  EXPECT_EQ(q.size(), 3);
  // 3 + 2 > 4: rejected whole, nothing enqueued, items left intact.
  std::vector<int> two{4, 5};
  EXPECT_EQ(q.push_all(two), PushResult::kFull);
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(two[0], 4);
  EXPECT_EQ(two[1], 5);
  // Exactly filling the remaining capacity is admitted.
  std::vector<int> one{6};
  EXPECT_EQ(q.push_all(one), PushResult::kOk);
  EXPECT_EQ(q.size(), 4);
  const auto batch = q.pop_batch(8, kNoWait);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[3], 6);
  q.close();
  std::vector<int> late{7};
  EXPECT_EQ(q.push_all(late), PushResult::kClosed);
  std::vector<int> empty;
  EXPECT_THROW(q.push_all(empty), std::invalid_argument);
}

// ------------------------------------------------ group requests (serving) ----

TEST_F(RuntimeServing, GroupSubmitFusedMatchesSerialFusionBothConfigs) {
  // The scatter/gather contract end to end: a K-view group request's fused
  // detections are element-wise identical to fusing the K per-view serial
  // results outside the runtime — for both deployable configurations, while
  // ordinary sibling requests interleave in the same batcher.
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.max_wait_us = 300;
  opts.queue_capacity = 64;
  InferenceServer server(*snap_, opts);

  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    std::vector<std::future<GroupInferenceResult>> groups;
    std::vector<std::future<InferenceResult>> singles;
    constexpr int64_t kViews = 3;
    for (int64_t i = 0; i < 6; ++i) {
      auto views = detect::jittered_views(eval_->scene(i).image, kViews,
                                          0.05f, 900 + (uint64_t)i);
      auto g = server.try_submit_group(std::move(views), *task_, config);
      ASSERT_TRUE(g.admitted());
      groups.push_back(std::move(*g.future));
      auto s = server.try_submit(eval_->scene(i).image, *task_, config);
      ASSERT_TRUE(s.admitted());
      singles.push_back(std::move(*s.future));
    }
    for (int64_t i = 0; i < 6; ++i) {
      GroupInferenceResult g = groups[static_cast<size_t>(i)].get();
      EXPECT_EQ(g.view_count, kViews);
      ASSERT_EQ(g.views.size(), static_cast<size_t>(kViews));
      // Serial fusion over per-view serial detections.
      const auto views = detect::jittered_views(eval_->scene(i).image, kViews,
                                                0.05f, 900 + (uint64_t)i);
      std::vector<std::vector<detect::Detection>> per_view;
      for (const Tensor& v : views) {
        per_view.push_back(fw_->detect(v, *task_, config));
      }
      for (int64_t v = 0; v < kViews; ++v) {
        expect_same_detections(g.views[static_cast<size_t>(v)].detections,
                               per_view[static_cast<size_t>(v)]);
      }
      expect_same_detections(
          g.fused, detect::fuse_views(per_view, server.options().fusion));
      // Interleaved ordinary traffic is untouched by group machinery.
      expect_same_detections(
          singles[static_cast<size_t>(i)].get().detections,
          fw_->detect(eval_->scene(i).image, *task_, config));
    }
  }
  server.shutdown();
  EXPECT_EQ(server.metrics().counter("groups_submitted").value(), 12);
  EXPECT_EQ(server.metrics().counter("groups_completed").value(), 12);
  EXPECT_EQ(server.metrics().counter("groups_failed").value(), 0);
  // Each group contributed its K views to the ordinary request counters.
  EXPECT_EQ(server.metrics().counter("requests_submitted").value(),
            12 * 3 + 12);
  EXPECT_EQ(server.metrics().histogram("group_fuse_us").snapshot().count, 12);
}

TEST_F(RuntimeServing, GroupFleetFusedIdenticalAtAnyShardCount) {
  // The fleet twin inherits the whole contract: fused detections are
  // element-wise identical to serial fusion at every shard count, and the
  // group lands on exactly one shard of the task's replica set.
  const auto snapshot = fw_->publish();
  constexpr int64_t kViews = 3;
  for (const int64_t shards : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    FleetOptions fo;
    fo.shards = shards;
    fo.replication = 2;
    fo.shard_options.workers = 2;
    fo.shard_options.max_batch = 4;
    fo.shard_options.max_wait_us = 300;
    InferenceFleet fleet(snapshot, fo);
    const std::vector<int64_t> replicas = fleet.router().replicas(task_->id);

    std::vector<std::future<GroupInferenceResult>> futures;
    for (int64_t i = 0; i < 6; ++i) {
      const ConfigKind config = (i % 2 == 0)
                                    ? ConfigKind::kTaskSpecific
                                    : ConfigKind::kQuantizedMultiTask;
      auto views = detect::jittered_views(eval_->scene(i).image, kViews,
                                          0.05f, 500 + (uint64_t)i);
      GroupSubmitResult r =
          fleet.try_submit_group(std::move(views), task_->id, config);
      ASSERT_TRUE(r.admitted());
      EXPECT_NE(std::find(replicas.begin(), replicas.end(), r.shard),
                replicas.end());
      futures.push_back(std::move(*r.future));
    }
    fleet.shutdown();
    for (int64_t i = 0; i < 6; ++i) {
      const ConfigKind config = (i % 2 == 0)
                                    ? ConfigKind::kTaskSpecific
                                    : ConfigKind::kQuantizedMultiTask;
      const auto views = detect::jittered_views(eval_->scene(i).image, kViews,
                                                0.05f, 500 + (uint64_t)i);
      std::vector<std::vector<detect::Detection>> per_view;
      for (const Tensor& v : views) {
        per_view.push_back(fw_->detect(v, *task_, config));
      }
      expect_same_detections(
          futures[static_cast<size_t>(i)].get().fused,
          detect::fuse_views(per_view,
                             fo.shard_options.fusion));
    }
  }
}

TEST_F(RuntimeServing, GroupFaultIsolationFailsOnlyTheGroup) {
  // A fault in ONE view's inference fails the whole logical group — typed
  // as GroupViewFault naming the lowest failed view — while a sibling
  // ordinary request in the same server (and later groups) are unaffected.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;  // one view per micro-batch → the injector can target
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  std::atomic<int64_t> injections{0};
  opts.fault_injector = [&injections](const FaultSite& site) {
    // Request ids 0..2 are the first group's views; fail view 1 only.
    if (site.first_request_id == 1) {
      injections.fetch_add(1);
      throw std::runtime_error("injected view fault");
    }
  };
  InferenceServer server(*snap_, opts);

  auto views = detect::jittered_views(eval_->scene(0).image, 3, 0.05f, 31);
  auto g = server.try_submit_group(std::move(views), *task_,
                                   ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(g.admitted());
  auto s = server.try_submit(eval_->scene(1).image, *task_,
                             ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(s.admitted());

  // The sibling ordinary request is untouched.
  expect_same_detections(s.future->get().detections,
                         fw_->detect(eval_->scene(1).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  // A later group on the same still-running server completes normally.
  auto views2 = detect::jittered_views(eval_->scene(2).image, 2, 0.05f, 32);
  auto g2 = server.try_submit_group(std::move(views2), *task_,
                                    ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(g2.admitted());
  EXPECT_EQ(g2.future->get().view_count, 2);
  // Read the typed fault AFTER shutdown: the worker's release of its last
  // gather reference is then joined, so inspecting the rethrown exception's
  // internals (what(), a COW string inside uninstrumented libstdc++) is
  // TSan-visibly ordered. The synchronization while serving is the atomic
  // exception_ptr refcount, which TSan cannot see into.
  server.shutdown();
  try {
    g.future->get();
    FAIL() << "group with a faulted view must not resolve with a value";
  } catch (const GroupViewFault& fault) {
    EXPECT_EQ(fault.first_failed_view(), 1);
    EXPECT_EQ(fault.failed_views(), 1);
    EXPECT_NE(std::string(fault.what()).find("injected view fault"),
              std::string::npos);
  }

  EXPECT_EQ(injections.load(), 1);
  EXPECT_EQ(server.metrics().counter("groups_failed").value(), 1);
  EXPECT_EQ(server.metrics().counter("groups_completed").value(), 1);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 1);
}

TEST_F(RuntimeServing, GroupDeadlineShedFailsTypedWhileSiblingServes) {
  // Stall the only worker on an ordinary no-deadline request, queue a group
  // with a 2 ms deadline plus a generous-deadline sibling, release after the
  // deadline passed: every view of the group is shed at batch formation and
  // the group future fails as GroupViewFault (the DeadlineExceeded cause in
  // its message), while the sibling serves.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  std::atomic<bool> release{false};
  opts.fault_injector = [&release](const FaultSite& site) {
    if (site.first_request_id == 0) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  InferenceServer server(*snap_, opts);

  auto stall = server.try_submit(eval_->scene(0).image, *task_,
                                 ConfigKind::kQuantizedMultiTask,
                                 /*deadline_us=*/0);
  ASSERT_TRUE(stall.admitted());
  auto views = detect::jittered_views(eval_->scene(1).image, 3, 0.05f, 41);
  auto g = server.try_submit_group(std::move(views), *task_,
                                   ConfigKind::kQuantizedMultiTask,
                                   /*deadline_us=*/2000);
  ASSERT_TRUE(g.admitted());
  auto s = server.try_submit(eval_->scene(2).image, *task_,
                             ConfigKind::kQuantizedMultiTask,
                             /*deadline_us=*/60'000'000);
  ASSERT_TRUE(s.admitted());

  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // > 2 ms
  release.store(true);
  server.shutdown();

  try {
    g.future->get();
    FAIL() << "expired group must not resolve with a value";
  } catch (const GroupViewFault& fault) {
    EXPECT_EQ(fault.first_failed_view(), 0);
    EXPECT_EQ(fault.failed_views(), 3);
    EXPECT_NE(std::string(fault.what()).find("expired"), std::string::npos);
  }
  expect_same_detections(s.future->get().detections,
                         fw_->detect(eval_->scene(2).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 3);
  EXPECT_EQ(server.metrics().counter("groups_failed").value(), 1);
  EXPECT_EQ(server.metrics().counter("groups_completed").value(), 0);
}

TEST_F(RuntimeServing, GroupAdmissionValidatesAndRejectsAtomically) {
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 4;
  std::atomic<bool> release{false};
  opts.fault_injector = [&release](const FaultSite& site) {
    if (site.first_request_id == 0) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  InferenceServer server(*snap_, opts);

  // Malformed groups throw at admission, like try_submit.
  EXPECT_THROW(server.try_submit_group({}, *task_,
                                       ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  std::vector<Tensor> bad;
  bad.push_back(eval_->scene(0).image);
  bad.push_back(Tensor({3, 2, 2}));  // wrong shape, view index 1
  EXPECT_THROW(server.try_submit_group(std::move(bad), *task_,
                                       ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  // A group that could never fit the queue is a configuration error.
  EXPECT_THROW(
      server.try_submit_group(
          detect::jittered_views(eval_->scene(0).image, 5, 0.05f, 1), *task_,
          ConfigKind::kQuantizedMultiTask),
      std::invalid_argument);
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 1);

  // Backpressure is all-or-nothing: stall the worker, fill the queue to 2 of
  // 4, then a 3-view group must reject whole (kQueueFull) without enqueuing
  // any view; a 2-view group still fits.
  auto stall = server.try_submit(eval_->scene(0).image, *task_,
                                 ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(stall.admitted());  // picked up by the worker, then stalls
  std::vector<std::future<InferenceResult>> fillers;
  // Wait for the worker to take the stall request off the queue.
  while (server.metrics().counter("batches").value() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 2; ++i) {
    auto f = server.try_submit(eval_->scene(1).image, *task_,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    fillers.push_back(std::move(*f.future));
  }
  auto too_big = server.try_submit_group(
      detect::jittered_views(eval_->scene(2).image, 3, 0.05f, 2), *task_,
      ConfigKind::kQuantizedMultiTask);
  EXPECT_FALSE(too_big.admitted());
  EXPECT_EQ(too_big.reject, RejectReason::kQueueFull);
  auto fits = server.try_submit_group(
      detect::jittered_views(eval_->scene(2).image, 2, 0.05f, 2), *task_,
      ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(fits.admitted());
  release.store(true);
  server.shutdown();
  EXPECT_EQ(fits.future->get().view_count, 2);

  // After shutdown: kShuttingDown, again as a unit.
  auto late = server.try_submit_group(
      detect::jittered_views(eval_->scene(0).image, 2, 0.05f, 3), *task_,
      ConfigKind::kQuantizedMultiTask);
  EXPECT_FALSE(late.admitted());
  EXPECT_EQ(late.reject, RejectReason::kShuttingDown);
  EXPECT_EQ(server.metrics().counter("rejected_queue_full").value(), 1);
  EXPECT_EQ(server.metrics().counter("rejected_shutdown").value(), 1);
}

TEST_F(RuntimeServing, AdmissionMaxDeadlineIsNeverShed) {
  // A deadline budget of INT64_MAX us reaches past the end of the clock:
  // the absolute deadline saturates to "never expires" instead of
  // overflowing (signed-overflow UB) into the past, which shed the request
  // as DeadlineExceeded. Single and group, on the server and the fleet.
  constexpr int64_t kForever = std::numeric_limits<int64_t>::max();
  const ConfigKind config = ConfigKind::kQuantizedMultiTask;
  const auto views = [&] {
    return detect::jittered_views(eval_->scene(1).image, 3, 0.05f, 17);
  };
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  auto single = server.try_submit(eval_->scene(0).image, *task_, config,
                                  kForever);
  auto group = server.try_submit_group(views(), *task_, config, kForever);
  ASSERT_TRUE(single.admitted());
  ASSERT_TRUE(group.admitted());
  expect_same_detections(single.future->get().detections,
                         fw_->detect(eval_->scene(0).image, *task_, config));
  EXPECT_EQ(group.future->get().view_count, 3);
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 0);

  FleetOptions fo;
  fo.shards = 2;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(*snap_, fo);
  auto fleet_single = fleet.try_submit(eval_->scene(0).image, *task_, config,
                                       /*tenant=*/0, kForever);
  auto fleet_group =
      fleet.try_submit_group(views(), *task_, config, /*tenant=*/0, kForever);
  ASSERT_TRUE(fleet_single.admitted());
  ASSERT_TRUE(fleet_group.admitted());
  expect_same_detections(fleet_single.future->get().detections,
                         fw_->detect(eval_->scene(0).image, *task_, config));
  EXPECT_EQ(fleet_group.future->get().view_count, 3);
  for (int64_t s = 0; s < fleet.shard_count(); ++s) {
    EXPECT_EQ(fleet.shard(s).metrics().counter("requests_expired").value(),
              0);
  }
}

TEST_F(RuntimeServing, AdmissionRejectsNonFinitePixels) {
  // An image holding a NaN or +-inf pixel is malformed input, treated
  // exactly like a mis-shaped one: std::invalid_argument at admission,
  // counted once in requests_invalid, nothing queued — the whole group when
  // any one view is bad. The fleet propagates the shard's rejection and
  // never fails over on it.
  const ConfigKind config = ConfigKind::kQuantizedMultiTask;
  const auto poisoned = [&](float value) {
    Tensor image = eval_->scene(0).image;
    image[image.numel() / 2] = value;
    return image;
  };
  const auto group_with_bad_view = [&](float value) {
    std::vector<Tensor> views =
        detect::jittered_views(eval_->scene(1).image, 3, 0.05f, 19);
    views[1] = poisoned(value);
    return views;
  };
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  FleetOptions fo;
  fo.shards = 2;
  fo.replication = 2;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(*snap_, fo);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(server.try_submit(poisoned(bad), *task_, config),
                 std::invalid_argument);
    EXPECT_THROW(
        server.try_submit_group(group_with_bad_view(bad), *task_, config),
        std::invalid_argument);
    EXPECT_THROW(fleet.try_submit(poisoned(bad), *task_, config),
                 std::invalid_argument);
    EXPECT_THROW(
        fleet.try_submit_group(group_with_bad_view(bad), *task_, config),
        std::invalid_argument);
  }
  server.shutdown();
  fleet.shutdown();
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 6);
  EXPECT_EQ(fleet.shard(0).metrics().counter("requests_invalid").value() +
                fleet.shard(1).metrics().counter("requests_invalid").value(),
            6);
  // Nothing was queued: no request or group admitted, no batch ever formed.
  for (MetricsRegistry* m : {&server.metrics(), &fleet.shard(0).metrics(),
                             &fleet.shard(1).metrics()}) {
    EXPECT_EQ(m->counter("requests_submitted").value(), 0);
    EXPECT_EQ(m->counter("groups_submitted").value(), 0);
    EXPECT_EQ(m->counter("batches").value(), 0);
  }
  // Malformed input is not a placement failure.
  EXPECT_EQ(fleet.metrics().counter("fleet_failovers").value(), 0);
  EXPECT_EQ(fleet.metrics().counter("fleet_requests_invalid").value(), 0);
}

TEST_F(RuntimeServing, HugeFinitePixelsYieldNoDetections) {
  // 3e38 is finite, so admission accepts it, but it overflows inside the
  // model to non-finite head outputs. The decoder drops every such cell:
  // the serial path and the server both return an empty list, not NaN boxes.
  const Tensor image(eval_->scene(0).image.shape(), 3e38f);
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    EXPECT_TRUE(fw_->detect(image, *task_, config).empty());
    auto f = server.try_submit(image, *task_, config);
    ASSERT_TRUE(f.admitted());
    EXPECT_TRUE(f.future->get().detections.empty());
  }
}

TEST_F(RuntimeServing, GroupArenaZeroSteadyStateAllocationsWithGroupTraffic) {
  // The allocation-free hot-path contract survives group traffic: views ride
  // the same arena-scoped region as ordinary requests, and fusion runs
  // outside it — so after warmup, steady-state group serving adds ZERO heap
  // allocations to the metered region.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_wait_us = 50000;
  opts.queue_capacity = 64;
  InferenceServer server(*snap_, opts);
  const auto drive = [&](int64_t rounds) {
    for (int64_t r = 0; r < rounds; ++r) {
      for (const ConfigKind config :
           {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
        // One 4-view group = one full homogeneous micro-batch.
        auto g = server.try_submit_group(
            detect::jittered_views(eval_->scene(0).image, opts.max_batch,
                                   0.05f, 60 + (uint64_t)r),
            *task_, config);
        ASSERT_TRUE(g.admitted());
        EXPECT_EQ(g.future->get().view_count, opts.max_batch);
      }
    }
  };
  drive(2);  // warmup
  const int64_t warm = server.metrics().counter("hot_path_allocs").value();
  EXPECT_LE(warm, 64);
  drive(4);  // steady state
  EXPECT_EQ(server.metrics().counter("hot_path_allocs").value(), warm)
      << "group serving heap-allocated in the hot path after warmup";
  EXPECT_EQ(server.metrics().counter("arena_overflow_allocs").value(), 0);
  EXPECT_EQ(server.metrics().counter("groups_completed").value(), 12);
}

TEST(LoadGen, GroupKnobSeededAndDrawsNothingWhenOff) {
  // Off by default: every request is single-view with view_seed 0, and the
  // schedule is bit-identical to one generated before the knob existed
  // (fraction 0 consumes no rng draws).
  LoadGenOptions o;
  o.requests = 256;
  o.rate_rps = 2000.0;
  o.tasks = 4;
  o.tenants = 3;
  o.scenes = 8;
  Rng off_rng(99);
  const auto off = generate_schedule(o, off_rng);
  for (const GeneratedRequest& r : off) {
    EXPECT_EQ(r.views, 1);
    EXPECT_EQ(r.view_seed, 0u);
  }

  // On: deterministic per seed, the marked fraction carries group_views.
  o.group_fraction = 0.4;
  o.group_views = 3;
  Rng rng_a(99);
  Rng rng_b(99);
  const auto a = generate_schedule(o, rng_a);
  const auto b = generate_schedule(o, rng_b);
  ASSERT_EQ(a.size(), b.size());
  int64_t grouped = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].views, b[i].views);
    EXPECT_EQ(a[i].view_seed, b[i].view_seed);
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].task_index, b[i].task_index);
    if (a[i].views > 1) {
      EXPECT_EQ(a[i].views, o.group_views);
      ++grouped;
    } else {
      EXPECT_EQ(a[i].view_seed, 0u);
    }
  }
  // ~40% of 256, loosely bracketed.
  EXPECT_GT(grouped, 64);
  EXPECT_LT(grouped, 144);

  o.group_fraction = 1.5;
  Rng bad_rng(1);
  EXPECT_THROW(generate_schedule(o, bad_rng), std::invalid_argument);
  o.group_fraction = 0.5;
  o.group_views = 0;
  EXPECT_THROW(generate_schedule(o, bad_rng), std::invalid_argument);
}

}  // namespace
}  // namespace itask::runtime
