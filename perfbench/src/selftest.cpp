// Tests of the benchmark's own helpers: exact percentiles, seeded inputs and
// the metric table. perfbench/selftest.py runs them and also checks that
// BENCHMARK.json lists exactly the metrics the benchmark prints.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

TEST(ExactPercentile, NearestRankOnSmallSamples) {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(exact_percentile(ten, 0.5).value, 5.0);   // rank 5
  EXPECT_EQ(exact_percentile(ten, 0.5).beyond, 5);
  EXPECT_EQ(exact_percentile(ten, 0.9).value, 9.0);   // rank 9
  EXPECT_EQ(exact_percentile(ten, 0.91).value, 10.0); // rank ceil(9.1) = 10
  EXPECT_EQ(exact_percentile(ten, 1.0).value, 10.0);
  EXPECT_EQ(exact_percentile(ten, 1.0).beyond, 0);
  EXPECT_EQ(exact_percentile(ten, 0.01).value, 1.0);
  EXPECT_EQ(exact_percentile({42.0}, 0.99).value, 42.0);
  EXPECT_EQ(exact_percentile({42.0}, 0.99).samples, 1);
}

TEST(ExactPercentile, P99LeavesTenBeyondAtOneThousandSamples) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  const Percentile p = exact_percentile(v, 0.99);
  EXPECT_EQ(p.value, 990.0);
  EXPECT_EQ(p.samples, 1000);
  EXPECT_EQ(p.beyond, 10);
  EXPECT_GE(p.beyond, kMinBeyond);
  // The value is a sample itself, never a bucket bound: with 1001 samples
  // rank ceil(990.99) = 991 is the inserted 990.5.
  v.push_back(990.5);
  EXPECT_EQ(exact_percentile(v, 0.99).value, 990.5);
  EXPECT_EQ(exact_percentile({1.0, 1.1, 1.2, 1.3}, 0.75).value, 1.2);
}

TEST(ExactPercentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(exact_percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(exact_percentile({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(exact_percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(Windowed, MedianOfPerWindowPercentiles) {
  // Three 1-s windows; the middle one is slow. Its p50 (100) is neither
  // the reported figure nor able to drag it, unlike a pooled percentile.
  WindowedSamples s(3.0, 3, {0.5});
  WindowedSamples wide(6.0, 6, {0.5});
  for (const double start : {0.0, 1.0, 2.0}) {
    for (int i = 0; i < 20; ++i) {
      const double value = start == 1.0 ? 100.0 : 10.0 + start + i % 2;
      s.add(start + 0.01 * i, value);
      wide.add(start + 0.01 * i, value);
    }
  }
  s.add(3.5, 12.0);  // after the span: counts in the last window
  s.finish();
  wide.finish();
  const WindowedPercentile p = s.percentile(0.5);
  EXPECT_EQ(p.value, 12.0);
  EXPECT_EQ(p.windows, 3);
  EXPECT_EQ(p.min_samples, 20);
  EXPECT_EQ(p.min_beyond, 10);
  EXPECT_EQ(s.count(), 61);
  EXPECT_THROW(wide.percentile(0.5), std::invalid_argument);  // 3 empty
}

TEST(Windowed, LateSampleCountsInTheOpenWindowAndQuantilesAreExact) {
  WindowedSamples s(2.0, 2, {0.5, 0.99});
  for (int i = 1; i <= 100; ++i) s.add(0.001 * i, i);  // window 0: 1..100
  s.add(1.5, 1000.0);  // opens window 1
  s.add(0.5, 2000.0);  // stamped in the closed window 0: counts in 1
  s.add(1.6, 3000.0);
  EXPECT_THROW(s.percentile(0.5), std::logic_error);  // before finish
  s.finish();
  EXPECT_THROW(s.add(1.7, 1.0), std::logic_error);
  EXPECT_THROW(s.percentile(0.9), std::logic_error);  // not tracked
  const WindowedPercentile p99 = s.percentile(0.99);
  // Window 0: rank 99 of 1..100 is 99; window 1: rank 3 of 3 is 3000.
  EXPECT_EQ(p99.value, 99.0);  // lower median of {99, 3000}
  EXPECT_EQ(p99.min_samples, 3);
  EXPECT_EQ(p99.min_beyond, 0);
  EXPECT_EQ(s.percentile(0.5).value, 50.0);  // medians 50 and 2000
  EXPECT_DOUBLE_EQ(s.mean(), (5050.0 + 6000.0) / 103.0);
  EXPECT_THROW(WindowedSamples(1.0, 1, {0.0}), std::invalid_argument);
  EXPECT_THROW(WindowedSamples(1.0, 0), std::invalid_argument);
}

TEST(Windowed, RateIsMedianPerSecondAndIgnoresTheDrain) {
  WindowedSamples three(3.0, 3);
  WindowedSamples one(3.0, 1);
  // Sums need no time order; 3.0 is after the span and ignored.
  for (const auto& [t, value] : std::vector<std::pair<double, double>>{
           {0.1, 8}, {2.2, 12}, {0.9, 2}, {1.5, 30}, {2.9, 0}, {3.0, 1000}}) {
    three.add(t, value);
    one.add(t, value);
  }
  three.finish();
  one.finish();
  EXPECT_EQ(three.rate(), 12.0);  // rates 10, 30, 12
  EXPECT_EQ(one.rate(), 52.0 / 3.0);
}

TEST(Seeding, SameSeedSameScheduleAndViewSeeds) {
  const auto a = burst_schedule(7, 2.0, 4, 256);
  const auto b = burst_schedule(7, 2.0, 4, 256);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 2000u);
  int64_t groups = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].task_index, b[i].task_index);
    EXPECT_EQ(a[i].scene, b[i].scene);
    EXPECT_EQ(a[i].views, b[i].views);
    EXPECT_EQ(a[i].view_seed, b[i].view_seed);
    if (a[i].views > 1) ++groups;
  }
  EXPECT_GT(groups, 0);
  EXPECT_EQ(a.back().arrival_us, 2'000'000);  // exactly 1000 req/s offered
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].arrival_us, a[i].arrival_us);
  }
  const auto c = burst_schedule(8, 2.0, 4, 256);
  bool differs = false;
  for (size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    differs = differs || a[i].arrival_us != c[i].arrival_us ||
              a[i].view_seed != c[i].view_seed;
  }
  EXPECT_TRUE(differs);
}

TEST(Seeding, DerivedSeedsAreDistinctPerStream) {
  std::set<uint64_t> seen;
  for (uint64_t seed : {0ULL, 1ULL, 2ULL}) {
    for (uint64_t stream = 0; stream < 8; ++stream) {
      EXPECT_TRUE(seen.insert(derive_seed(seed, stream)).second);
      EXPECT_EQ(derive_seed(seed, stream), derive_seed(seed, stream));
    }
  }
}

TEST(Metrics, NamesAndUnitsAreWellFormedAndUnique) {
  EXPECT_LE(end_to_end_metrics().size(), 16u);
  EXPECT_LE(per_layer_metrics().size(), 128u);
  std::set<std::string> names;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& s : *list) {
      EXPECT_TRUE(valid_metric_name(s.name)) << s.name;
      EXPECT_TRUE(valid_unit(s.unit)) << s.unit;
      EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    }
  }
  bool has_setup = false;
  for (const MetricSpec& s : end_to_end_metrics()) {
    has_setup = has_setup || (std::string(s.name) == "setup_s" &&
                              std::string(s.unit) == "s");
  }
  EXPECT_TRUE(has_setup);
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name("core.infer_raw_us_per_img.ts.b1"));
}

TEST(ResultJson, PrintsExactlyTheDeclaredSet) {
  const std::vector<MetricSpec> specs = {{"a", "s"}, {"b.c", "us"}};
  const std::string json =
      result_json(true, 3, 0, specs, {{"a", 1.5}, {"b.c", 0.25}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, "
            "\"b.c\": {\"value\": 0.25, \"unit\": \"us\"}}}");
  EXPECT_THROW(result_json(true, 1, 0, specs, {{"a", 1.0}}),
               std::logic_error);
  EXPECT_THROW(
      result_json(true, 1, 0, specs, {{"a", 1.0}, {"b.c", 1.0}, {"d", 1.0}}),
      std::logic_error);
}

}  // namespace
}  // namespace perfbench
