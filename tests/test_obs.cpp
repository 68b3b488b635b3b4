// Flight-recorder suite: the trace export must be valid Chrome
// trace-event JSON (parses with util::json, spans well-nested per
// pid/tid track), worker traces must stitch in under their own pids,
// disabled mode must record nothing, and tracing must never perturb
// results — the OMP 1/2/8 determinism contract holds bit-identically
// with the recorder on.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/plan.hpp"
#include "api/registry.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"

namespace {

using namespace kronotri;
using util::json::Value;

// Small plan exercising generate, stream, analyze and validate stages.
constexpr const char* kPlanText =
    "kron:(hk:n=40,m=2,p=0.5,seed=7)x(hk:n=40,m=2,p=0.5,seed=7,loops=1) "
    "census:edges=1 degree:histogram=0 validate:mem_budget=8K";

/// RAII: recorder on + clean registry, everything off/cleared on exit so
/// tests never leak trace state into each other.
struct TraceOn {
  TraceOn() {
    obs::TraceRecorder::instance().clear();
    obs::TraceRecorder::instance().set_enabled(true);
  }
  ~TraceOn() {
    obs::TraceRecorder::instance().set_enabled(false);
    obs::TraceRecorder::instance().clear();
  }
};

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& tag)
      : path("/tmp/kronotri_obs" + std::to_string(::getpid()) + "_" + tag) {}
  ~TempFile() { std::remove(path.c_str()); }
};

const std::vector<Value>& trace_events(const Value& doc) {
  const Value* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  return events->items();
}

/// Per-(pid,tid) well-nestedness of 'X' spans: sorted by start (longer
/// first on ties), every span must either nest fully inside the enclosing
/// open span or start after it ends. Overlap without containment fails.
void expect_well_nested(const Value& doc) {
  std::map<std::pair<std::int64_t, std::uint64_t>, std::vector<std::pair<double, double>>>
      tracks;
  for (const Value& ev : trace_events(doc)) {
    if (ev.get_string("ph", "") != "X") continue;
    const double ts = ev.find("ts")->as_double();
    const double dur = ev.find("dur")->as_double();
    tracks[{ev.find("pid")->as_int(), ev.get_uint("tid", 0)}].emplace_back(
        ts, ts + dur);
  }
  for (auto& [track, spans] : tracks) {
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;  // longer (enclosing) span first
    });
    std::vector<std::pair<double, double>> stack;
    for (const auto& [start, end] : spans) {
      while (!stack.empty() && start >= stack.back().second) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(end, stack.back().second)
            << "span [" << start << "," << end << ") overlaps enclosing ["
            << stack.back().first << "," << stack.back().second
            << ") on pid=" << track.first << " tid=" << track.second;
      }
      stack.emplace_back(start, end);
    }
  }
}

bool has_span(const Value& doc, const std::string& name) {
  for (const Value& ev : trace_events(doc)) {
    if (ev.get_string("ph", "") == "X" && ev.get_string("name", "") == name) {
      return true;
    }
  }
  return false;
}

TEST(Stopwatch, WallAdvancesAndCpuNonNegative) {
  obs::Stopwatch sw;
  const double t0 = obs::now_us();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  EXPECT_GT(obs::now_us(), t0);
  EXPECT_GE(sw.wall_s(), 0.0);
  EXPECT_GE(sw.cpu_s(), 0.0);
  EXPECT_NEAR(obs::now_s(), obs::now_us() * 1e-6, 1e-3);
  EXPECT_LT(obs::Stopwatch().wall_s(), 1.0);
}

TEST(Counters, RegistrySnapshotAndDelta) {
  obs::CounterRegistry& reg = obs::CounterRegistry::instance();
  reg.reset();
  const Value empty = reg.snapshot();
  EXPECT_TRUE(!empty.is_object() || empty.members().empty());

  const Value start = reg.snapshot();
  obs::counter("test.alpha").add(3);
  obs::counter("test.alpha").add(2);
  obs::histogram("test.peak").record(7);
  obs::histogram("test.peak").record(2);  // lower: must not win the max
  const Value end = reg.snapshot();
  EXPECT_EQ(end.get_uint("test.alpha", 0), 5u);
  EXPECT_DOUBLE_EQ(end.find("test.peak.max")->as_double(), 7.0);
  EXPECT_EQ(end.get_uint("test.peak.count", 0), 2u);

  // Delta vs the pre-increment snapshot reports exactly this run's bumps.
  const Value d = obs::CounterRegistry::delta(start, end);
  EXPECT_EQ(d.get_uint("test.alpha", 0), 5u);
  // Delta vs the post-increment snapshot reports no counter movement.
  const Value d2 = obs::CounterRegistry::delta(end, end);
  EXPECT_EQ(d2.find("test.alpha"), nullptr);
  reg.reset();
}

/// The sample of nearest rank floor(q·(n−1)) — what Histogram::summarize
/// estimates.
std::uint64_t exact_rank(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

void expect_within_bucket_error(double estimate, std::uint64_t exact) {
  const double x = static_cast<double>(exact);
  EXPECT_LE(std::abs(estimate - x), x / 32.0 * (1 + 1e-12))
      << "estimate " << estimate << " exact " << exact;
}

TEST(Histogram, BucketsTileTheU64Range) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_low(0), 0u);
  EXPECT_EQ(H::bucket_high(H::kBuckets - 1), ~std::uint64_t{0});
  for (std::size_t b = 0; b < H::kBuckets; ++b) {
    EXPECT_EQ(H::bucket_of(H::bucket_low(b)), b);
    EXPECT_EQ(H::bucket_of(H::bucket_high(b)), b);
    if (b + 1 < H::kBuckets) {
      EXPECT_EQ(H::bucket_high(b) + 1, H::bucket_low(b + 1));
    }
    // Width at most 1/16 of the lower edge (exact below 16).
    EXPECT_LE(H::bucket_high(b) - H::bucket_low(b),
              H::bucket_low(b) / H::kSub);
  }
}

TEST(Histogram, QuantilesWithinDocumentedError) {
  obs::CounterRegistry::instance().reset();
  obs::Histogram& h = obs::histogram("test.hist.quantiles");
  util::Xoshiro256 rng(42);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    // Every magnitude from 0 to 2^64 − 1.
    samples.push_back(rng() >> (rng() % 64));
  }
  for (int i = 0; i < 16; ++i) samples.push_back(static_cast<std::uint64_t>(i));
  for (const std::uint64_t v : samples) h.record(v);

  const obs::Histogram::Summary s = obs::Histogram::summarize(
      obs::CounterRegistry::instance().snapshot(), "test.hist.quantiles");
  EXPECT_EQ(s.count, samples.size());
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(*std::max_element(
                              samples.begin(), samples.end())));
  expect_within_bucket_error(s.p50, exact_rank(samples, 0.50));
  expect_within_bucket_error(s.p99, exact_rank(samples, 0.99));

  // Values below 16 have a bucket each: quantiles are exact.
  obs::Histogram& small = obs::histogram("test.hist.small");
  for (std::uint64_t v = 0; v < 10; ++v) small.record(v);
  const obs::Histogram::Summary ss = obs::Histogram::summarize(
      obs::CounterRegistry::instance().snapshot(), "test.hist.small");
  EXPECT_EQ(ss.count, 10u);
  EXPECT_DOUBLE_EQ(ss.p50, 4.0);
  EXPECT_DOUBLE_EQ(ss.p99, 8.0);
  EXPECT_DOUBLE_EQ(ss.max, 9.0);
  obs::CounterRegistry::instance().reset();
}

TEST(Histogram, ConcurrentRecordsCountExactly) {
  obs::CounterRegistry::instance().reset();
  obs::Histogram& h = obs::histogram("test.hist.threads");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record((i * 7919 + static_cast<std::uint64_t>(t)) % 100000);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.max(), 99999u);
  std::uint64_t in_buckets = 0;
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    in_buckets += h.bucket(b);
  }
  EXPECT_EQ(in_buckets, kThreads * kPerThread);
  const Value snap = obs::CounterRegistry::instance().snapshot();
  EXPECT_EQ(snap.get_uint("test.hist.threads.count", 0), kThreads * kPerThread);
  obs::CounterRegistry::instance().reset();
}

TEST(Histogram, DeltaOfSnapshotsCoversOnlyTheInterval) {
  obs::CounterRegistry& reg = obs::CounterRegistry::instance();
  reg.reset();
  obs::Histogram& h = obs::histogram("test.hist.delta");
  for (std::uint64_t i = 0; i < 1000; ++i) h.record(1000000 + i * 1000);
  const Value before = reg.snapshot();
  std::vector<std::uint64_t> interval;
  std::map<std::size_t, std::uint64_t> per_bucket;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint64_t v = 1000 + i * 2;
    interval.push_back(v);
    ++per_bucket[obs::Histogram::bucket_of(v)];
    h.record(v);
  }
  const Value d = obs::CounterRegistry::delta(before, reg.snapshot());

  EXPECT_EQ(d.get_uint("test.hist.delta.count", 0), 500u);
  std::uint64_t bucket_entries = 0;
  for (const auto& [key, v] : d.members()) {
    if (key.starts_with("test.hist.delta.b")) ++bucket_entries;
  }
  EXPECT_EQ(bucket_entries, per_bucket.size());
  for (const auto& [b, c] : per_bucket) {
    EXPECT_EQ(d.get_uint("test.hist.delta.b" + std::to_string(b), 0), c);
  }
  const obs::Histogram::Summary s =
      obs::Histogram::summarize(d, "test.hist.delta");
  EXPECT_EQ(s.count, 500u);
  expect_within_bucket_error(s.p50, exact_rank(interval, 0.50));
  expect_within_bucket_error(s.p99, exact_rank(interval, 0.99));
  // The lifetime max (~2e6) predates the interval; the reported max stays
  // within the interval's top bucket.
  EXPECT_GE(s.max, static_cast<double>(interval.back()));
  EXPECT_LE(s.max, static_cast<double>(interval.back()) * (1 + 1.0 / 16));
  reg.reset();
}

TEST(Log, LevelParsingAndLineFormat) {
  using util::log::Level;
  EXPECT_EQ(util::log::level_from("debug"), Level::kDebug);
  EXPECT_EQ(util::log::level_from("INFO"), Level::kInfo);
  EXPECT_EQ(util::log::level_from("off"), Level::kOff);
  EXPECT_EQ(util::log::level_from("bogus"), Level::kWarn);

  const std::string line = util::log::format_line(
      Level::kInfo, "runner", "unit dispatched",
      {{"unit", 3}, {"pid", static_cast<std::int64_t>(77)}, {"note", "two words"}});
  EXPECT_NE(line.find("INFO"), std::string::npos);
  EXPECT_NE(line.find("runner: unit dispatched"), std::string::npos);
  EXPECT_NE(line.find("unit=3"), std::string::npos);
  EXPECT_NE(line.find("pid=77"), std::string::npos);
  EXPECT_NE(line.find("note=\"two words\""), std::string::npos);
  EXPECT_NE(line.find("Z "), std::string::npos) << "timestamp missing";
}

TEST(Log, ThresholdGates) {
  using util::log::Level;
  const Level saved = util::log::threshold();
  util::log::set_threshold(Level::kWarn);
  EXPECT_FALSE(util::log::enabled(Level::kInfo));
  EXPECT_TRUE(util::log::enabled(Level::kError));
  util::log::set_threshold(saved);
}

TEST(Trace, DisabledModeRecordsNothing) {
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.set_enabled(false);
  rec.clear();
  {
    obs::Span span("never");
    span.arg("k", 1);
    obs::Span two("pre", "fix");
    rec.instant("nope");
    rec.counter("none", 1.0);
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(trace_events(rec.export_json()).empty());
}

TEST(Trace, ExportParsesAndSpansNest) {
  const TraceOn on;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.set_process_name("test process");
  {
    obs::Span outer("outer");
    outer.arg("k", std::uint64_t{42});
    { obs::Span inner("inner:", "first"); }
    { obs::Span inner("inner:", "second"); }
    rec.instant("marker");
  }
  rec.counter("test.counter", 3.0);

  const Value doc = Value::parse(rec.export_json().dump_string(0));
  expect_well_nested(doc);
  EXPECT_TRUE(has_span(doc, "outer"));
  EXPECT_TRUE(has_span(doc, "inner:first"));
  EXPECT_TRUE(has_span(doc, "inner:second"));
  bool saw_instant = false, saw_counter = false, saw_meta = false;
  for (const Value& ev : trace_events(doc)) {
    const std::string ph = ev.get_string("ph", "");
    if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(ev.get_string("s", ""), "t");
    }
    if (ph == "C" && ev.get_string("name", "") == "test.counter") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(ev.find("args")->find("value")->as_double(), 3.0);
    }
    if (ph == "M") saw_meta = true;
    EXPECT_EQ(ev.find("pid")->as_int(), static_cast<std::int64_t>(::getpid()));
  }
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_meta);
}

TEST(Trace, CompleteOnUsesSyntheticTrack) {
  const TraceOn on;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  const double t0 = obs::now_us();
  rec.complete_on(10001, "attempt", t0, 5.0);
  rec.complete_on(10101, "attempt", t0 + 1.0, 5.0);  // overlaps, own track
  const Value doc = rec.export_json();
  expect_well_nested(doc);
  std::vector<std::uint64_t> tids;
  for (const Value& ev : trace_events(doc)) tids.push_back(ev.get_uint("tid", 0));
  EXPECT_NE(std::find(tids.begin(), tids.end(), 10001u), tids.end());
  EXPECT_NE(std::find(tids.begin(), tids.end(), 10101u), tids.end());
}

TEST(Trace, ImportStitchesWorkerFilePreservingPid) {
  const TraceOn on;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  const TempFile file("worker_trace");

  // Forge a "worker" export: a span under a foreign pid, plus one bogus
  // pid=0 event that the importer must refuse (0 means "this process" and
  // an imported event must never masquerade as the importing process).
  {
    std::ofstream out(file.path);
    out << "{\"traceEvents\":[{\"name\":\"worker:run\",\"ph\":\"X\","
           "\"ts\":1.0,\"dur\":2.0,\"pid\":999999,\"tid\":1},"
           "{\"name\":\"bogus\",\"ph\":\"X\",\"ts\":1.0,\"dur\":1.0,"
           "\"pid\":0,\"tid\":1}]}\n";
  }
  EXPECT_TRUE(rec.import_file(file.path));
  { obs::Span span("coordinator"); }

  const Value doc = rec.export_json();
  bool saw_worker = false, saw_bogus = false, saw_local = false;
  for (const Value& ev : trace_events(doc)) {
    const std::string name = ev.get_string("name", "");
    if (name == "worker:run") {
      saw_worker = true;
      EXPECT_EQ(ev.find("pid")->as_int(), 999999);
    }
    if (name == "bogus") saw_bogus = true;
    if (name == "coordinator") {
      saw_local = true;
      EXPECT_EQ(ev.find("pid")->as_int(), static_cast<std::int64_t>(::getpid()));
    }
  }
  EXPECT_TRUE(saw_worker);
  EXPECT_FALSE(saw_bogus);
  EXPECT_TRUE(saw_local);
}

TEST(Trace, ImportToleratesMissingAndTruncatedFiles) {
  const TraceOn on;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  EXPECT_FALSE(rec.import_file("/nonexistent/kronotri_trace.json"));
  const TempFile file("truncated");
  { std::ofstream(file.path) << "{\"traceEvents\":[{\"name\":\"x\","; }
  EXPECT_FALSE(rec.import_file(file.path));
  EXPECT_TRUE(trace_events(rec.export_json()).empty());
}

TEST(Trace, RoundTripsThroughFile) {
  const TraceOn on;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  { obs::Span span("roundtrip"); }
  const TempFile file("roundtrip");
  ASSERT_TRUE(rec.export_file(file.path));
  std::ifstream in(file.path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const Value doc = Value::parse(text);
  EXPECT_TRUE(has_span(doc, "roundtrip"));
}

TEST(TraceApi, RunEmitsStageSpansAndCounters) {
  const TraceOn on;
  const api::RunPlan plan = api::RunPlan::parse(kPlanText);
  const api::RunReport report = api::run(plan);
  ASSERT_TRUE(report.pass);

  const Value doc = obs::TraceRecorder::instance().export_json();
  expect_well_nested(doc);
  EXPECT_TRUE(has_span(doc, "api::run"));
  EXPECT_TRUE(has_span(doc, "stage:generate"));
  EXPECT_TRUE(has_span(doc, "stage:stream"));
  bool saw_analyze = false, saw_shard = false;
  for (const Value& ev : trace_events(doc)) {
    const std::string name = ev.get_string("name", "");
    if (name.rfind("analyze:", 0) == 0) saw_analyze = true;
    if (name == "validate:shard") saw_shard = true;
  }
  EXPECT_TRUE(saw_analyze);
  EXPECT_TRUE(saw_shard);

  // The per-run counter delta reaches the report and names the stream work.
  ASSERT_TRUE(report.counters.is_object());
  EXPECT_GT(report.counters.get_uint("api.edges_streamed", 0), 0u);
  EXPECT_GT(report.counters.get_uint("validate.shards_executed", 0), 0u);
  // The closed-form fold runs inside the census's wedge pass; its time is
  // a counter of its own, sampled only while tracing.
  EXPECT_GT(report.counters.get_uint("validate.fold_ns", 0), 0u);
  // The engine's last-factor row masks: ⌈d_x/64⌉ words per slot of B.
  const Graph b = api::GeneratorRegistry::builtin().build(
      "hk:n=40,m=2,p=0.5,seed=7,loops=1");
  std::uint64_t mask_words = 0;
  for (vid x = 0; x < b.num_vertices(); ++x) {
    mask_words += b.out_degree(x) * ((b.out_degree(x) + 63) / 64);
  }
  EXPECT_EQ(report.counters.get_uint("validate.mask_bytes", 0),
            mask_words * sizeof(std::uint64_t));
}

TEST(TraceApi, FoldTimeIsOnlyMeasuredWhileTracing) {
  const api::RunReport report = api::run(api::RunPlan::parse(kPlanText));
  ASSERT_TRUE(report.pass);
  EXPECT_GT(report.counters.get_uint("validate.shards_executed", 0), 0u);
  EXPECT_EQ(report.counters.find("validate.fold_ns"), nullptr);
}

TEST(TraceApi, TracingDoesNotPerturbResults) {
  api::RunPlan plan = api::RunPlan::parse(kPlanText);
  plan.options.threads = 2;
  const std::string baseline =
      runner::comparable(api::run(plan).to_json()).dump_string(2);

  // OMP 1/2/8 with the recorder hot: bit-identical per comparable().
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int t : {1, 2, 8}) {
    omp_set_num_threads(t);
#else
  {
#endif
    const TraceOn on;
    const std::string traced =
        runner::comparable(api::run(plan).to_json()).dump_string(2);
    EXPECT_EQ(traced, baseline);
    EXPECT_FALSE(
        trace_events(obs::TraceRecorder::instance().export_json()).empty());
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(TraceRunner, WorkerTracesStitchUnderDistinctPids) {
  if (runner::default_worker_exe().empty()) {
    GTEST_SKIP() << "worker binary not resolvable from this test binary";
  }
  const TraceOn on;
  api::RunPlan plan = api::RunPlan::parse(kPlanText);
  plan.options.threads = 1;
  runner::Options opt;
  opt.workers = 2;
  opt.straggler_min_s = 60;
  const api::RunReport report = runner::execute(plan, opt);
  ASSERT_TRUE(report.pass) << report.error;

  const Value doc = obs::TraceRecorder::instance().export_json();
  expect_well_nested(doc);
  std::vector<std::int64_t> pids;
  bool saw_attempt = false, saw_worker_span = false;
  for (const Value& ev : trace_events(doc)) {
    const std::int64_t pid = ev.find("pid")->as_int();
    if (std::find(pids.begin(), pids.end(), pid) == pids.end()) {
      pids.push_back(pid);
    }
    const std::string name = ev.get_string("name", "");
    if (name == "attempt") saw_attempt = true;
    if (name == "worker:run") saw_worker_span = true;
  }
  EXPECT_TRUE(has_span(doc, "runner::execute"));
  EXPECT_TRUE(saw_attempt) << "coordinator attempt spans missing";
  EXPECT_TRUE(saw_worker_span) << "worker trace not stitched in";
  EXPECT_GE(pids.size(), 2u) << "expected coordinator + >=1 worker pid";
}

}  // namespace
