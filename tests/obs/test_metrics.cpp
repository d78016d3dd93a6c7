#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace hymem::obs {
namespace {

TEST(MetricsRegistry, GetOrCreateReturnsSameObject) {
  MetricsRegistry registry;
  Counter& a = registry.counter("hits");
  a.inc(3);
  Counter& b = registry.counter("hits");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value, 3u);
  EXPECT_NE(&registry.counter("misses"), &a);
}

TEST(MetricsRegistry, SameNameDifferentKindsAreDistinct) {
  MetricsRegistry registry;
  registry.counter("x").inc();
  registry.gauge("x").set(2.5);
  EXPECT_EQ(registry.counter("x").value, 1u);
  EXPECT_DOUBLE_EQ(registry.gauge("x").value, 2.5);
}

TEST(MetricsRegistry, ReferencesStayStableAcrossGrowth) {
  MetricsRegistry registry;
  Counter& first = registry.counter("first");
  // Force many reallocations of the entry vector.
  for (int i = 0; i < 100; ++i) {
    // Appended, not `"c" + std::to_string(i)`: GCC 12's -Wrestrict misfires
    // on that concatenation at -O3.
    std::string name = "c";
    name += std::to_string(i);
    registry.counter(name).inc();
  }
  first.inc(7);
  EXPECT_EQ(registry.counter("first").value, 7u);
}

TEST(MetricsRegistry, IterationFollowsRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("zulu");
  registry.counter("alpha");
  registry.counter("mike");
  std::vector<std::string> names;
  registry.for_each_counter(
      [&](const std::string& name, const Counter&) { names.push_back(name); });
  EXPECT_EQ(names, (std::vector<std::string>{"zulu", "alpha", "mike"}));
}

TEST(Histogram, BucketsByUpperBoundInclusive) {
  Histogram h({10.0, 20.0});
  h.record(5.0);    // <= 10 -> bucket 0
  h.record(10.0);   // == bound -> bucket 0
  h.record(10.5);   // bucket 1
  h.record(20.0);   // bucket 1
  h.record(1e9);    // overflow bucket
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0 + 10.0 + 10.5 + 20.0 + 1e9);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 5.0);
}

TEST(Histogram, EmptyMeanIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({10.0, 10.0}), std::logic_error);
  EXPECT_THROW(Histogram({20.0, 10.0}), std::logic_error);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtFirstRegistration) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {1.0, 2.0});
  Histogram& again = registry.histogram("lat", {99.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistry, WriteJsonEscapesAndSerializes) {
  MetricsRegistry registry;
  registry.counter("evil\"name").inc(2);
  registry.gauge("g").set(1.5);
  registry.histogram("h", {10.0}).record(3.0);
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"evil\\\"name\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g\": 1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\": [1, 0]"), std::string::npos) << json;
}

}  // namespace
}  // namespace hymem::obs
