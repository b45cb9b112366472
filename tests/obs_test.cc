// Unit tests for the observability subsystem (src/common/obs/): span
// nesting and id derivation, fan-out merge ordering, histogram bucket
// edges, label-cardinality limits, and exporter golden output.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/obs/chrome_trace.h"
#include "common/obs/metrics.h"
#include "common/obs/obs.h"
#include "common/obs/trace.h"
#include "common/sim_clock.h"

namespace vpim::obs {
namespace {

TEST(Span, KindTablesAreConsistent) {
  for (std::size_t i = 0; i < kSpanKindNames.size(); ++i) {
    const auto kind = static_cast<SpanKind>(i);
    EXPECT_EQ(kind_name(kind), kSpanKindNames[i]);
    // Every kind maps to some layer and some category.
    EXPECT_LT(static_cast<std::size_t>(layer_of(kind)), kLayerNames.size());
    EXPECT_LT(static_cast<std::size_t>(category_of(kind)),
              kCategoryNames.size());
  }
  EXPECT_EQ(category_of(SpanKind::kRead), Category::kRead);
  EXPECT_EQ(category_of(SpanKind::kReadCached), Category::kRead);
  // The old prefix-matching bug: "read.fill" must NOT be a read-category
  // root; it is an internal fill message nested inside a read.
  EXPECT_EQ(category_of(SpanKind::kReadFill), Category::kInternal);
  EXPECT_EQ(layer_of(SpanKind::kDpuCompute), Layer::kRank);
  EXPECT_EQ(layer_of(SpanKind::kSerialize), Layer::kWire);
}

TEST(Tracer, IdsDeriveFromRequestSequence) {
  Tracer t;
  EXPECT_EQ(t.begin_request(), 1u);
  const SpanId a = t.begin_span(SpanKind::kWrite, 10);
  const SpanId b = t.begin_span(SpanKind::kVirtioRoundtrip, 20);
  t.end_span(30);
  t.end_span(40);
  EXPECT_EQ(a, (1u << kRequestShift) | 1u);
  EXPECT_EQ(b, (1u << kRequestShift) | 2u);

  EXPECT_EQ(t.begin_request(), 2u);
  const SpanId c = t.begin_span(SpanKind::kRead, 50);
  t.end_span(60);
  EXPECT_EQ(c, (2u << kRequestShift) | 1u);
}

TEST(Tracer, NestingRecordsParentChildAndCompletionOrder) {
  Tracer t;
  t.begin_request();
  const SpanId root = t.begin_span(SpanKind::kWrite, 0);
  const SpanId child = t.begin_span(SpanKind::kVirtioRoundtrip, 5);
  t.end_span(15);  // child completes first
  t.end_span(20);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].id, child);
  EXPECT_EQ(t.spans()[0].parent, root);
  EXPECT_EQ(t.spans()[0].duration, 10u);
  EXPECT_EQ(t.spans()[1].id, root);
  EXPECT_EQ(t.spans()[1].parent, 0u);  // root
  EXPECT_EQ(t.spans()[1].duration, 20u);
}

TEST(Tracer, EndSpanClampsClockRewind) {
  Tracer t;
  t.begin_request();
  t.begin_span(SpanKind::kBackendRequest, 100);
  const Span& s = t.end_span(40);  // parallel replay rewound the clock
  EXPECT_EQ(s.duration, 0u);
}

TEST(Tracer, FanoutScopeMergesInIndexOrderUnderOpenParent) {
  Tracer t;
  t.begin_request();
  const SpanId launch = t.begin_span(SpanKind::kRankLaunch, 0);
  {
    Tracer::FanoutScope fan(&t, 4);
    // Record out of index order, skipping one slot, as pool workers would.
    fan.record(2, SpanKind::kDpuCompute, 0, 30, 0, 1, 7);
    fan.record(0, SpanKind::kDpuCompute, 0, 10, 0, 1, 7);
    fan.record(3, SpanKind::kDpuCompute, 0, 40, 0, 1, 7);
  }
  t.end_span(40);
  ASSERT_EQ(t.spans().size(), 4u);
  // Children replay in index order (0, 2, 3), all parented to the launch.
  EXPECT_EQ(t.spans()[0].duration, 10u);
  EXPECT_EQ(t.spans()[1].duration, 30u);
  EXPECT_EQ(t.spans()[2].duration, 40u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.spans()[i].parent, launch);
    EXPECT_EQ(t.spans()[i].rank, 7u);
  }
  EXPECT_EQ(t.spans()[3].id, launch);
}

TEST(Tracer, NullTracerFastPathRecordsNothing) {
  // Every RAII helper must be a no-op against a null tracer — this is the
  // "no sink attached" production configuration.
  SimClock clock;
  {
    ScopedSpan s(nullptr, clock, SpanKind::kWrite);
    s.set_bytes(123);
    s.set_kind(SpanKind::kRead);
    s.close();
  }
  Tracer::FanoutScope fan(nullptr, 64);
  EXPECT_FALSE(fan.active());
  fan.record(0, SpanKind::kDpuCompute, 0, 1);
  fan.merge();
  // Nothing to assert against — the test passes by not crashing and by
  // the helpers never touching a tracer. Guard with a real tracer that
  // stays empty:
  Tracer t;
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.current_request(), 0u);
}

TEST(Tracer, ScopedSpanAddsItsDurationToItsTotalOnce) {
  // The total is the span's own interval, traced or not, and a second
  // close() (or the destructor after one) adds nothing.
  SimClock clock;
  Tracer t;
  SimNs untraced = 5;
  SimNs traced = 0;
  clock.advance(100);
  {
    ScopedSpan s(nullptr, clock, SpanKind::kDeserialize, &untraced);
    clock.advance(30);
    s.close();
    clock.advance(7);
    s.close();
  }
  EXPECT_EQ(untraced, 35u);
  {
    ScopedSpan s(&t, clock, SpanKind::kTransferData, &traced);
    clock.advance(40);
    s.close();
    clock.advance(9);
    s.close();
  }
  EXPECT_EQ(traced, 40u);
  ASSERT_EQ(t.spans().size(), 1u);
  EXPECT_EQ(t.spans()[0].duration, traced);
  EXPECT_EQ(t.spans()[0].start, 137u);
}

TEST(Tracer, CategoryTotalsCountOnlyRoots) {
  Tracer t;
  t.begin_request();
  t.begin_span(SpanKind::kRead, 0);
  t.record(SpanKind::kReadFill, 2, 5);  // nested internal fill
  t.end_span(10);
  EXPECT_EQ(t.total_for(Category::kRead), 10u);
  EXPECT_EQ(t.count_for(Category::kRead), 1u);
  EXPECT_EQ(t.total_for(SpanKind::kReadFill), 5u);
  // A root fill would be a bug; the category math must not see one.
  EXPECT_EQ(t.total_for(Category::kInternal), 0u);
}

TEST(Tracer, CsvGolden) {
  Tracer t;
  t.begin_request();
  t.begin_span(SpanKind::kWrite, 1500);
  t.top().tenant = t.intern("vm0/vupmem0");
  t.top().bytes = 4096;
  t.top().entries = 2;
  t.record(SpanKind::kSerialize, 1500, 250, 4096, 2);
  t.end_span(4000);
  std::ostringstream os;
  t.dump_csv(os);
  EXPECT_EQ(os.str(),
            "start_us,duration_us,kind,bytes,entries,id,parent,request,"
            "layer,rank,tenant\n"
            "1.500,0.250,wire.serialize,4096,2,65538,65537,1,wire,,\n"
            "1.500,2.500,write,4096,2,65537,0,1,frontend,,vm0/vupmem0\n");
}

TEST(Tracer, DigestIsStableAndComplete) {
  Tracer t;
  t.begin_request();
  t.begin_span(SpanKind::kCiLaunch, 0);
  t.end_span(100);
  const std::string d = t.digest();
  EXPECT_NE(d.find("ci.launch"), std::string::npos);
  EXPECT_EQ(d, t.digest());  // pure function of the stream
}

TEST(ChromeTrace, EmitsValidLanesAndEvents) {
  Tracer t;
  t.begin_request();
  t.begin_span(SpanKind::kCiLaunch, 0);
  t.begin_span(SpanKind::kRankLaunch, 10);
  t.top().rank = 3;
  t.end_span(500);
  t.end_span(600);
  std::ostringstream os;
  export_chrome_trace(t, os);
  const std::string json = os.str();
  // Chrome trace_event skeleton.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Layer lane metadata and the rank lane for rank 3 (tid 103).
  EXPECT_NE(json.find("\"args\":{\"name\":\"frontend\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":103,\"name\":\"thread_name\",\"args\":"
                      "{\"name\":\"rank 3\"}"),
            std::string::npos);
  // The launch span lands in the rank lane as a complete event.
  EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":1,\"tid\":103,\"name\":"
                      "\"rank.launch\""),
            std::string::npos);
  // Balanced braces/brackets — cheap structural validity check.
  std::ptrdiff_t braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Histogram, BucketEdges) {
  Histogram h;
  // bit_width buckets: 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4..7 -> 3; ...
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(4);
  h.observe(7);
  h.observe(8);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 2u);
  EXPECT_EQ(h.bucket_count(4), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 25u);
  EXPECT_EQ(Histogram::upper_bound(0), 0u);
  EXPECT_EQ(Histogram::upper_bound(1), 1u);
  EXPECT_EQ(Histogram::upper_bound(2), 3u);
  EXPECT_EQ(Histogram::upper_bound(3), 7u);
  // A value beyond the largest finite bucket lands in +Inf.
  Histogram big;
  big.observe(~std::uint64_t{0});
  EXPECT_EQ(big.bucket_count(Histogram::kBuckets), 1u);
}

TEST(Metrics, SeriesAreStableAndKeyedByLabels) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("vpim_test_ns", {{"op", "W"}});
  Histogram& b = reg.histogram("vpim_test_ns", {{"op", "R"}});
  a.observe(2);
  b.observe(5);
  // Same (name, labels) returns the same instrument.
  EXPECT_EQ(&reg.histogram("vpim_test_ns", {{"op", "W"}}), &a);
  EXPECT_EQ(a.sum(), 2u);
  EXPECT_EQ(b.sum(), 5u);
  EXPECT_EQ(reg.family_count(), 1u);
}

TEST(Metrics, LabelCardinalityFoldsIntoOverflowSeries) {
  MetricsRegistry reg;
  for (std::size_t i = 0; i < MetricsRegistry::kMaxSeriesPerFamily; ++i) {
    reg.histogram("vpim_card_ns", {{"i", std::to_string(i)}}).observe(1);
  }
  // Beyond the cap, every new label set shares one overflow series.
  Histogram& o1 = reg.histogram("vpim_card_ns", {{"i", "extra-1"}});
  Histogram& o2 = reg.histogram("vpim_card_ns", {{"i", "extra-2"}});
  EXPECT_EQ(&o1, &o2);
  o1.observe(3);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("vpim_card_ns_sum{overflow=\"true\"} 3\n"),
            std::string::npos);
  // Existing series still resolve exactly.
  EXPECT_EQ(reg.histogram("vpim_card_ns", {{"i", "0"}}).count(), 1u);
}

// A scoped series lives while a handle on it does: handles on the same
// labels share it, the last one takes it out of every export and out of
// the cardinality count, and a plain histogram() keeps it for good.
TEST(Metrics, ScopedSeriesLeaveWithTheirLastHandle) {
  MetricsRegistry reg;
  {
    auto a = reg.scoped_histogram("vpim_dev_ns", {{"device", "d0"}});
    auto b = reg.scoped_histogram("vpim_dev_ns", {{"device", "d0"}});
    EXPECT_EQ(&*a, &*b);
    a->observe(4);
    a.release();
    EXPECT_NE(reg.prometheus_text().find(
                  "vpim_dev_ns_count{device=\"d0\"} 1\n"),
              std::string::npos);
  }
  EXPECT_EQ(reg.prometheus_text(), "");
  EXPECT_EQ(reg.json_snapshot(), "{\"metrics\":[]}");
  EXPECT_EQ(reg.family_count(), 0u);

  // Churn far past the cap never folds: only live series count.
  for (std::size_t i = 0; i < 3 * MetricsRegistry::kMaxSeriesPerFamily; ++i) {
    auto h = reg.scoped_histogram("vpim_dev_ns",
                                  {{"device", std::to_string(i)}});
    h->observe(1);
  }
  auto live = reg.scoped_histogram("vpim_dev_ns", {{"device", "live"}});
  const std::string text = reg.prometheus_text();
  EXPECT_EQ(text.find("overflow"), std::string::npos);
  EXPECT_NE(text.find("vpim_dev_ns_count{device=\"live\"} 0\n"),
            std::string::npos);
  EXPECT_EQ(text.find("device=\"0\""), std::string::npos);

  // A plain registration of the same labels outlives the handle.
  Histogram& kept = reg.histogram("vpim_dev_ns", {{"device", "live"}});
  EXPECT_EQ(&kept, &*live);
  live.release();
  kept.observe(2);
  EXPECT_NE(reg.prometheus_text().find(
                "vpim_dev_ns_count{device=\"live\"} 1\n"),
            std::string::npos);
}

TEST(Metrics, PrometheusTextGolden) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("vpim_lat_ns");
  h.observe(0);
  h.observe(5);
  auto handle = reg.add_collector([](Collection& out) {
    out.counter("vpim_requests_total", {{"device", "d0"}}, 3);
    out.gauge("vpim_bound_ranks", {}, -2);
  });
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE vpim_requests_total counter\n"
                      "vpim_requests_total{device=\"d0\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE vpim_bound_ranks gauge\nvpim_bound_ranks -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE vpim_lat_ns histogram\n"), std::string::npos);
  // Cumulative buckets: le="0" sees the 0 sample, le="7" both, +Inf both.
  EXPECT_NE(text.find("vpim_lat_ns_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vpim_lat_ns_bucket{le=\"7\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("vpim_lat_ns_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("vpim_lat_ns_sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("vpim_lat_ns_count 2\n"), std::string::npos);
  // Registered histograms come first, then the collected families.
  EXPECT_LT(text.find("# TYPE vpim_lat_ns"),
            text.find("# TYPE vpim_requests_total"));
  EXPECT_EQ(reg.family_count(), 3u);
}

TEST(Metrics, JsonSnapshotIsBalanced) {
  MetricsRegistry reg;
  auto handle = reg.add_collector(
      [](Collection& out) { out.counter("vpim_a_total", {}, 1); });
  reg.histogram("vpim_b_ns", {{"op", "CI"}}).observe(42);
  const std::string json = reg.json_snapshot();
  EXPECT_EQ(json.find("{\"metrics\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"vpim_a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  std::ptrdiff_t braces = 0;
  for (char c : json) braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
  EXPECT_EQ(braces, 0);
}

TEST(Metrics, CollectorsRunAtExportAndUnregister) {
  MetricsRegistry reg;
  int runs = 0;
  {
    auto handle = reg.add_collector([&](Collection& out) {
      ++runs;
      out.counter("vpim_live_total", {{"src", "stats"}}, 7);
      out.gauge("vpim_live_gauge", {}, -1);
    });
    const std::string text = reg.prometheus_text();
    EXPECT_EQ(runs, 1);
    EXPECT_NE(text.find("# TYPE vpim_live_total counter\n"
                        "vpim_live_total{src=\"stats\"} 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("vpim_live_gauge -1\n"), std::string::npos);
  }
  // Handle destroyed: the collector no longer contributes.
  const std::string text = reg.prometheus_text();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(text.find("vpim_live_total"), std::string::npos);
}

// Two devices publish the same families through two collectors; the
// export still names each family once, with all of its samples together.
TEST(Metrics, EachCollectedFamilyExportsOnce) {
  MetricsRegistry reg;
  reg.histogram("vpim_op_ns", {{"device", "d0"}}).observe(9);
  auto first = reg.add_collector([](Collection& out) {
    out.counter("vpim_a_total", {{"device", "d0"}}, 1);
    out.counter("vpim_b_total", {{"device", "d0"}}, 2);
  });
  auto second = reg.add_collector([](Collection& out) {
    out.counter("vpim_b_total", {{"device", "d1"}}, 3);
    out.gauge("vpim_c", {}, -4);
    out.counter("vpim_a_total", {{"device", "d1"}}, 5);
  });

  // Each sample line must belong to the family whose "# TYPE" line came
  // last, and no family may be announced twice.
  const std::string text = reg.prometheus_text();
  std::vector<std::string> typed;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      typed.push_back(line.substr(7, line.find(' ', 7) - 7));
      continue;
    }
    ASSERT_FALSE(typed.empty()) << line;
    EXPECT_EQ(line.rfind(typed.back(), 0), 0u) << line;
  }
  const std::vector<std::string> families = {"vpim_op_ns", "vpim_a_total",
                                             "vpim_b_total", "vpim_c"};
  EXPECT_EQ(typed, families);
  EXPECT_EQ(reg.family_count(), families.size());
  EXPECT_NE(text.find("# TYPE vpim_a_total counter\n"
                      "vpim_a_total{device=\"d0\"} 1\n"
                      "vpim_a_total{device=\"d1\"} 5\n"
                      "# TYPE vpim_b_total counter\n"
                      "vpim_b_total{device=\"d0\"} 2\n"
                      "vpim_b_total{device=\"d1\"} 3\n"
                      "# TYPE vpim_c gauge\n"
                      "vpim_c -4\n"),
            std::string::npos)
      << text;

  // The JSON snapshot lists the samples in the same family order.
  const std::string json = reg.json_snapshot();
  std::vector<std::string> json_names;
  const std::string key = "\"name\":\"";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    const std::size_t start = at + key.size();
    json_names.push_back(json.substr(start, json.find('"', start) - start));
  }
  EXPECT_EQ(json_names,
            (std::vector<std::string>{"vpim_op_ns", "vpim_a_total",
                                      "vpim_a_total", "vpim_b_total",
                                      "vpim_b_total", "vpim_c"}));
}

TEST(Metrics, PrometheusLabelValuesAreEscaped) {
  // Hostile label values (tenant names flow into labels): quotes,
  // backslashes, and newlines must not break the exposition format.
  MetricsRegistry reg;
  auto handle = reg.add_collector([](Collection& out) {
    out.counter("vpim_esc_total", {{"vm", "a\"b\\c\nd\re"}}, 1);
  });
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("vpim_esc_total{vm=\"a\\\"b\\\\c\\nd\\re\"} 1\n"),
            std::string::npos);
  // The physical line count stays fixed: no raw newline leaked through.
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 2u);  // "# TYPE" line + one sample line
}

TEST(Metrics, JsonLabelValuesAreEscaped) {
  MetricsRegistry reg;
  auto handle = reg.add_collector([](Collection& out) {
    out.gauge("vpim_esc_gauge", {{"vm", "q\"b\\s\nn\tt\x01z"}}, 4);
  });
  const std::string json = reg.json_snapshot();
  EXPECT_NE(json.find("\"vm\":\"q\\\"b\\\\s\\nn\\tt\\u0001z\""),
            std::string::npos);
  // Raw control bytes must never reach the output.
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  std::ptrdiff_t braces = 0;
  for (char c : json) braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
  EXPECT_EQ(braces, 0);
}

TEST(Metrics, HistogramSnapshotAtExactFoldBoundary) {
  // Fill a histogram family to exactly kMaxSeriesPerFamily, then one
  // more: the boundary series must keep its own buckets while the
  // 65th folds into the overflow series — in both exporters.
  MetricsRegistry reg;
  for (std::size_t i = 0; i < MetricsRegistry::kMaxSeriesPerFamily; ++i) {
    reg.histogram("vpim_fold_ns", {{"i", std::to_string(i)}}).observe(i);
  }
  Histogram& over =
      reg.histogram("vpim_fold_ns", {{"i", "one-past-the-cap"}});
  over.observe(100);
  over.observe(200);
  // The folded series is shared by every subsequent new label set.
  EXPECT_EQ(&reg.histogram("vpim_fold_ns", {{"i", "two-past-the-cap"}}),
            &over);
  // The last in-cap series (i=63) is intact and individually addressable.
  const std::string last =
      std::to_string(MetricsRegistry::kMaxSeriesPerFamily - 1);
  EXPECT_EQ(reg.histogram("vpim_fold_ns", {{"i", last}}).count(), 1u);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("vpim_fold_ns_count{i=\"" + last + "\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vpim_fold_ns_count{overflow=\"true\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("vpim_fold_ns_sum{overflow=\"true\"} 300\n"),
            std::string::npos);
  // No series for the folded label value leaks out under its own name.
  EXPECT_EQ(text.find("one-past-the-cap"), std::string::npos);

  const std::string json = reg.json_snapshot();
  EXPECT_NE(json.find("\"overflow\":\"true\""), std::string::npos);
  EXPECT_EQ(json.find("one-past-the-cap"), std::string::npos);
  std::ptrdiff_t braces = 0;
  for (char c : json) braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
  EXPECT_EQ(braces, 0);
}

}  // namespace
}  // namespace vpim::obs
