// Serving subsystem: bounded MPMC queue semantics (including the
// deadline-bounded push path), latency histogram math, multi-tenant
// ModelHost end-to-end (concurrent inference + background epoch-guarded
// scanning + fault injection -> detection -> in-place recovery), chaos
// fault-point survival (watchdog restarts, degraded-golden fallback,
// deadline drops), the daemon's line protocol and its resilience to
// malformed/hostile socket clients.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <regex>
#include <set>
#include <thread>

#include "common/fault_points.h"
#include "core/package.h"
#include "core/scheme_registry.h"
#include "data/model_recipe.h"
#include "exp/workspace.h"
#include "serve/daemon.h"
#include "serve/host.h"
#include "serve/latency_histogram.h"
#include "serve/request_queue.h"

#if defined(__unix__) || defined(__APPLE__)
#define RADAR_TEST_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define RADAR_TEST_HAVE_UNIX_SOCKETS 0
#endif

namespace radar::serve {
namespace {

// ---------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------
TEST(BoundedQueue, FifoAndCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3)) << "queue is full";
  EXPECT_EQ(q.rejected(), 1u);
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueue, CloseDrainsThenStops) {
  BoundedQueue<int> q(8);
  ASSERT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8)) << "push after close must fail";
  int v = 0;
  EXPECT_TRUE(q.pop(v)) << "pending items still delivered after close";
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(q.pop(v)) << "closed and drained";
}

TEST(BoundedQueue, BlockingPushWaitsForSpace) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&q] { EXPECT_TRUE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  producer.join();
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueue, ConcurrentProducersConsumersDeliverEverything) {
  BoundedQueue<int> q(16);
  constexpr int kProducers = 3, kConsumers = 3, kPerProducer = 500;
  std::atomic<int> consumed{0}, sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push(p * kPerProducer + i));
    });
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&] {
      int v;
      while (q.pop(v)) {
        consumed.fetch_add(1, std::memory_order_relaxed);
        sum.fetch_add(v, std::memory_order_relaxed);
      }
    });
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();
  const int n = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BoundedQueue, TryPushForTimesOutWhenFull) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.try_push_for(2, std::chrono::milliseconds(30)));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::milliseconds(25))
      << "must actually wait out the budget before giving up";
  EXPECT_EQ(q.timed_out(), 1u);
  EXPECT_EQ(q.rejected(), 0u)
      << "deadline timeouts are accounted separately from open-loop sheds";
}

TEST(BoundedQueue, TryPushForSucceedsWhenSpaceFrees) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  std::thread consumer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    int v = 0;
    EXPECT_TRUE(q.pop(v));
  });
  EXPECT_TRUE(q.try_push_for(2, std::chrono::seconds(5)))
      << "capacity freed inside the budget must be used";
  consumer.join();
  EXPECT_EQ(q.timed_out(), 0u);
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueue, TryPushForFailsFastOnClose) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  std::thread pusher([&q] {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(q.try_push_for(2, std::chrono::seconds(30)));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
        << "close() must wake a deadline-bounded producer immediately";
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  pusher.join();
  EXPECT_EQ(q.timed_out(), 0u) << "closed is not a timeout";
}

// ---------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------
TEST(LatencyHistogram, BucketsAreMonotonicAndCoverInt64) {
  int prev = -1;
  const std::vector<std::int64_t> values = {
      0, 1, 7, 8, 9, 100, 1000, 123456, std::int64_t{1} << 40,
      std::int64_t{1} << 62};
  for (std::int64_t v : values) {
    const int b = LatencyHistogram::bucket_of(v);
    EXPECT_GE(b, prev) << "bucket index must be monotone in value, v=" << v;
    EXPECT_LT(b, LatencyHistogram::kBuckets);
    prev = b;
  }
  // Sub-bucket midpoints stay within 12.5% of the value they stand for.
  for (std::int64_t v : {100LL, 5000LL, 987654LL}) {
    const std::int64_t mid =
        LatencyHistogram::bucket_mid(LatencyHistogram::bucket_of(v));
    EXPECT_NEAR(static_cast<double>(mid), static_cast<double>(v),
                0.125 * static_cast<double>(v));
  }
}

TEST(LatencyHistogram, QuantilesAndMerge) {
  LatencyHistogram a, b;
  for (int i = 1; i <= 1000; ++i) a.record(i * 1000);  // 1..1000 us
  for (int i = 0; i < 10; ++i) b.record(5'000'000);    // 5ms outliers
  auto s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.total, 1010u);
  EXPECT_EQ(s.max, 5'000'000);
  const std::int64_t p50 = s.quantile(0.50);
  EXPECT_NEAR(static_cast<double>(p50), 500'000.0, 0.15 * 500'000.0);
  EXPECT_GE(s.quantile(0.999), 1'000'000);
  EXPECT_EQ(s.quantile(1.0), 5'000'000) << "top quantile reports the max";
  a.reset();
  EXPECT_EQ(a.snapshot().total, 0u);
}

// ---------------------------------------------------------------------
// ModelHost end-to-end (shared fixture state: packages are signed once —
// model construction dominates the suite's runtime otherwise).
// ---------------------------------------------------------------------
class ServeHostTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pkg_a_ = new std::string("/tmp/radar_test_serve_a_" +
                             std::to_string(::getpid()) + ".rpkg");
    pkg_b_ = new std::string("/tmp/radar_test_serve_b_" +
                             std::to_string(::getpid()) + ".rpkg");
    exp::ModelBundle bundle =
        exp::make_bundle("tiny", /*train=*/false, /*eval_clean=*/false);
    const char* ids[2] = {"radar2", "radar3"};
    const std::string* paths[2] = {pkg_a_, pkg_b_};
    for (int i = 0; i < 2; ++i) {
      auto scheme = core::SchemeRegistry::instance().create(
          ids[i], core::SchemeParams{.group_size = 32});
      scheme->attach(*bundle.qmodel);
      core::save_package(*paths[i], *bundle.qmodel, *scheme, "tiny");
    }
  }
  static void TearDownTestSuite() {
    std::filesystem::remove(*pkg_a_);
    std::filesystem::remove(*pkg_b_);
    delete pkg_a_;
    delete pkg_b_;
    pkg_a_ = pkg_b_ = nullptr;
  }

  void add_two_tenants(ModelHost& host) {
    TenantConfig a;
    a.name = "alpha";
    a.package_path = *pkg_a_;
    TenantConfig b;
    b.name = "beta";
    b.package_path = *pkg_b_;
    EXPECT_EQ(host.add_tenant(a), 0u);
    EXPECT_EQ(host.add_tenant(b), 1u);
  }

  static std::string* pkg_a_;
  static std::string* pkg_b_;
};

std::string* ServeHostTest::pkg_a_ = nullptr;
std::string* ServeHostTest::pkg_b_ = nullptr;

TEST_F(ServeHostTest, RejectsTamperedPackage) {
  const std::string tampered = "/tmp/radar_test_serve_t_" +
                               std::to_string(::getpid()) + ".rpkg";
  // Flip one weight MSB after signing and re-save with the original
  // golden codes and engine: the package parses, but the payload CRC and
  // a signature break.
  {
    exp::ModelBundle b =
        exp::make_bundle("tiny", /*train=*/false, /*eval_clean=*/false);
    std::unique_ptr<core::IntegrityScheme> scheme;
    core::PackageLoadReport report =
        core::load_package(*pkg_a_, *b.qmodel, scheme);
    ASSERT_TRUE(report.verified());
    b.qmodel->flip_bit(1, 3, 7);
    core::save_package(tampered, *b.qmodel, *scheme, "tiny",
                       core::kPackageFormatV4, &report.info.engine);
  }
  ModelHost host;
  TenantConfig cfg;
  cfg.name = "evil";
  cfg.package_path = tampered;
  EXPECT_THROW(host.add_tenant(cfg), std::exception)
      << "a package failing verification must not enter service";
  std::filesystem::remove(tampered);
}

TEST_F(ServeHostTest, ServesTheSignedTrainedModel) {
  // Sign a trained model the way `radar_cli sign` does.
  exp::ModelBundle trained = exp::load_or_train("tiny");
  const std::string path = "/tmp/radar_test_serve_trained_" +
                           std::to_string(::getpid()) + ".rpkg";
  {
    auto scheme = core::SchemeRegistry::instance().create(
        "radar2", core::SchemeParams{.group_size = 32});
    scheme->attach(*trained.qmodel);
    core::save_package(path, *trained.qmodel, *scheme, "tiny");
  }
  // The signer's engine: compiled from the trained network and calibrated
  // on the first test images, as signing does.
  const nn::Tensor images =
      trained.dataset->test_batch(0, core::kPackageCalibImages).images;
  qnn::InferenceEngine signer(*trained.qmodel);
  signer.calibrate(images);
  const nn::Tensor want = signer.forward(images);

  ModelHost host;
  TenantConfig cfg;
  cfg.name = "trained";
  cfg.package_path = path;
  const std::size_t t = host.add_tenant(cfg);
  // Bring-up builds the engine from the package: no image rendered, so
  // no calibration ran.
  EXPECT_EQ(host.dataset(t).rendered_images(), 0);

  // The host's engine reproduces the signer's logits byte for byte.
  const auto same_logits = [&](const nn::Tensor& got) {
    return got.numel() == want.numel() &&
           std::memcmp(got.data(), want.data(),
                       static_cast<std::size_t>(want.numel()) *
                           sizeof(float)) == 0;
  };
  EXPECT_TRUE(same_logits(host.engine(t).forward(images)))
      << "served logits differ from the signer's engine";
  // Calibrating the package weights on the host's untrained reference net
  // would not: its batch-norm constants are not the signed ones.
  {
    exp::ModelBundle untrained =
        exp::make_bundle("tiny", /*train=*/false, /*eval_clean=*/false);
    std::unique_ptr<core::IntegrityScheme> scheme;
    ASSERT_TRUE(core::load_package(path, *untrained.qmodel, scheme).verified());
    qnn::InferenceEngine unsigned_engine(*untrained.qmodel);
    unsigned_engine.calibrate(images);
    EXPECT_FALSE(same_logits(unsigned_engine.forward(images)));
  }

  // And the request path answers with the signer's classes.
  host.start();
  const std::int64_t classes = signer.num_classes();
  for (std::int64_t i = 0; i < core::kPackageCalibImages; ++i) {
    const InferenceResult r =
        host.infer(t, host.dataset(t).test_batch(i, 1).images);
    ASSERT_TRUE(r.ok) << r.error;
    const float* row = want.data() + i * classes;
    EXPECT_EQ(r.predicted, std::max_element(row, row + classes) - row)
        << "image " << i;
  }
  host.stop();
  std::filesystem::remove(path);
}

TEST_F(ServeHostTest, ServesAPackageSignedFromAnotherSpec) {
  // A network the "tiny" recipe does not build — other depth and width,
  // same inputs and classes. The host takes the geometry from the
  // package, so the recipe only supplies request inputs.
  nn::ResNetSpec spec = data::model_recipe("tiny").spec;
  spec.base_width = 12;
  spec.blocks_per_stage = {2, 1};
  Rng rng(77);
  nn::ResNet net(spec, rng);
  quant::QuantizedModel qm(net);
  const std::string path = "/tmp/radar_test_serve_spec_" +
                           std::to_string(::getpid()) + ".rpkg";
  {
    auto scheme = core::SchemeRegistry::instance().create(
        "radar3", core::SchemeParams{.group_size = 16});
    scheme->attach(qm);
    core::save_package(path, qm, *scheme, "tiny-wide");
  }
  // The recipe's reference model cannot hold these weights.
  {
    exp::ModelBundle ref =
        exp::make_bundle("tiny", /*train=*/false, /*eval_clean=*/false);
    std::unique_ptr<core::IntegrityScheme> scheme;
    EXPECT_THROW(core::load_package(path, *ref.qmodel, scheme),
                 InvalidArgument);
  }

  const nn::Tensor images = data::model_recipe("tiny")
                                .dataset()
                                .test_batch(0, core::kPackageCalibImages)
                                .images;
  qnn::InferenceEngine signer(qm);
  signer.calibrate(images);
  const nn::Tensor want = signer.forward(images);

  ModelHost host;
  TenantConfig cfg;
  cfg.name = "wide";
  cfg.package_path = path;
  const std::size_t t = host.add_tenant(cfg);
  const nn::Tensor got = host.engine(t).forward(images);
  ASSERT_EQ(got.numel(), want.numel());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(want.numel()) *
                            sizeof(float)),
            0)
      << "served logits differ from the signer's engine";

  host.start();
  const std::int64_t classes = signer.num_classes();
  for (std::int64_t i = 0; i < core::kPackageCalibImages; ++i) {
    const InferenceResult r =
        host.infer(t, host.dataset(t).test_batch(i, 1).images);
    ASSERT_TRUE(r.ok) << r.error;
    const float* row = want.data() + i * classes;
    EXPECT_EQ(r.predicted, std::max_element(row, row + classes) - row)
        << "image " << i;
  }
  host.stop();
  std::filesystem::remove(path);
}

TEST_F(ServeHostTest, RefusesARecipeThatDoesNotFitTheSignedEngine) {
  // pkg_a_ is a 4-class "tiny" package: resnet20's 10-class and
  // resnet18's 20-class input pools do not fit its engine.
  ModelHost host;
  TenantConfig cfg;
  cfg.name = "alpha";
  cfg.package_path = *pkg_a_;
  for (const char* id : {"resnet20", "resnet18"}) {
    cfg.model_id = id;
    try {
      host.add_tenant(cfg);
      ADD_FAILURE() << "model_id " << id << " was admitted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("do not fit the signed engine"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(host.num_tenants(), 0u);
  }
  cfg.model_id = "tiny";
  EXPECT_EQ(host.add_tenant(cfg), 0u);
}

TEST_F(ServeHostTest, ServesTwoTenantsConcurrently) {
  ServeOptions opts;
  opts.workers = 2;
  opts.scan = true;
  ModelHost host(opts);
  add_two_tenants(host);
  EXPECT_EQ(host.find_tenant("beta"), 1u);
  EXPECT_EQ(host.find_tenant("nope"), ModelHost::npos);
  host.start();

  constexpr int kPerThread = 20;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (std::size_t t = 0; t < 2; ++t) {
    clients.emplace_back([&host, &ok, t] {
      const auto& ds = host.dataset(t);
      for (int i = 0; i < kPerThread; ++i) {
        const nn::Tensor input =
            ds.test_batch(i % ds.test_size(), 1).images;
        const InferenceResult r = host.infer(t, input);
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_GE(r.predicted, 0);
        EXPECT_GT(r.latency_ns, 0);
        if (r.ok) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& c : clients) c.join();
  host.stop();

  EXPECT_EQ(ok.load(), 2 * kPerThread);
  const HostStats stats = host.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  for (const auto& t : stats.tenants) {
    EXPECT_EQ(t.requests, static_cast<std::uint64_t>(kPerThread));
    EXPECT_EQ(t.errors, 0u);
    EXPECT_EQ(t.detections, 0u) << "clean traffic must not trip the scanner";
    EXPECT_GT(t.latency.total, 0u);
  }
  // The background scanner made progress while traffic flowed.
  EXPECT_GT(stats.tenants[0].shards_scanned + stats.tenants[1].shards_scanned,
            0u);
}

// Every key of STATS, split into the host object's keys (before
// "tenants") and each tenant object's keys, in order of appearance.
struct StatsKeys {
  std::vector<std::string> host;
  std::vector<std::vector<std::string>> tenants;
};

StatsKeys stats_keys(const std::string& json) {
  StatsKeys out;
  const std::size_t list = json.find("\"tenants\":[");
  EXPECT_NE(list, std::string::npos) << json;
  const std::regex key("\"([A-Za-z0-9_]+)\":");
  const auto keys_of = [&](std::size_t b, std::size_t e) {
    std::vector<std::string> keys;
    const std::string part = json.substr(b, e - b);
    for (std::sregex_iterator it(part.begin(), part.end(), key), end;
         it != end; ++it)
      keys.push_back((*it)[1]);
    return keys;
  };
  out.host = keys_of(0, list);
  for (std::size_t b = json.find('{', list); b != std::string::npos;
       b = json.find('{', b + 1))
    out.tenants.push_back(keys_of(b, json.find('}', b)));
  return out;
}

TEST_F(ServeHostTest, StatsJsonSchemaIsPinned) {
  // The STATS contract CI smokes and operators read: the key set and
  // the true/false rendering of the flags, whatever order they come in.
  ModelHost host;
  add_two_tenants(host);
  const std::string json = host.stats().to_json();
  const StatsKeys keys = stats_keys(json);

  const std::set<std::string> host_keys = {
      "scanning", "queue_rejected", "queue_timeouts", "scanner_restarts",
      "scanner_crashes", "worker_flags", "workers_wedged"};
  EXPECT_EQ(keys.host.size(), host_keys.size()) << json;
  EXPECT_EQ(std::set<std::string>(keys.host.begin(), keys.host.end()),
            host_keys)
      << json;

  const std::set<std::string> tenant_keys = {
      "name", "golden_mmapped", "requests", "errors", "p50_ns", "p99_ns",
      "p999_ns", "max_ns", "shards_scanned", "sweeps", "coverage_period_ms",
      "coverage_age_ms", "scan_bytes_per_sec", "coverage_alarms",
      "scan_cursor", "dirty_pending", "epoch_retries", "epoch_fallbacks",
      "writer_sections", "detections", "groups_recovered", "faults_injected",
      "last_ttd_ns", "quarantined", "quarantines", "readmits",
      "shed_quarantined", "bytes_scrubbed", "deadline_expired",
      "recover_failures", "degraded", "degrades", "heals"};
  ASSERT_EQ(tenant_keys.size(), 33u);
  ASSERT_EQ(keys.tenants.size(), 2u) << json;
  for (const auto& t : keys.tenants) {
    EXPECT_EQ(t.size(), tenant_keys.size()) << "duplicate key? " << json;
    EXPECT_EQ(std::set<std::string>(t.begin(), t.end()), tenant_keys)
        << json;
  }

  // Flags render as JSON booleans, once per tenant.
  for (const char* flag : {"quarantined", "degraded", "golden_mmapped"}) {
    const std::regex boolean("\"" + std::string(flag) +
                             "\":(true|false)[,}]");
    EXPECT_EQ(std::distance(
                  std::sregex_iterator(json.begin(), json.end(), boolean),
                  std::sregex_iterator()),
              2)
        << flag << " in " << json;
  }
  EXPECT_NE(json.find("\"scanning\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"degraded\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"last_ttd_ns\":-1"), std::string::npos) << json;
}

TEST_F(ServeHostTest, RejectsTenantNamesThatNeedEscaping) {
  // STATS writes tenant names into JSON unescaped.
  ModelHost host;
  for (const char* bad : {"a\"b", "a b", "a\\b", "a{b", ""}) {
    TenantConfig cfg;
    cfg.name = bad;
    cfg.package_path = *pkg_a_;
    EXPECT_THROW(host.add_tenant(cfg), InvalidArgument) << bad;
  }
  EXPECT_EQ(host.num_tenants(), 0u);
  TenantConfig ok;
  ok.name = "Tenant_1.v-2";
  ok.package_path = *pkg_a_;
  EXPECT_EQ(host.add_tenant(ok), 0u);
}

TEST_F(ServeHostTest, InjectedFaultsDetectedAndRecoveredUnderTraffic) {
  ServeOptions opts;
  opts.workers = 2;
  opts.scan = true;
  opts.scan_shard_bytes = 4096;
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  // Keep request traffic flowing on the victim while the attack lands.
  std::atomic<bool> stop{false};
  std::thread traffic([&host, &stop] {
    const auto& ds = host.dataset(0);
    const nn::Tensor input = ds.test_batch(0, 1).images;
    while (!stop.load(std::memory_order_relaxed)) host.infer(0, input);
  });

  const std::size_t made = host.inject_faults(0, /*flips=*/6, /*seed=*/42);
  EXPECT_EQ(made, 6u);

  // One full sweep must catch it; allow generous wall time under load.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  HostStats stats;
  while (std::chrono::steady_clock::now() < deadline) {
    stats = host.stats();
    if (stats.tenants[0].detections > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  traffic.join();
  host.stop();

  EXPECT_GT(stats.tenants[0].detections, 0u) << "injection went undetected";
  EXPECT_GT(stats.tenants[0].groups_recovered, 0u);
  EXPECT_GE(stats.tenants[0].last_ttd_ns, 0) << "time-to-detect not recorded";
  EXPECT_EQ(stats.tenants[0].faults_injected, 6u);
  EXPECT_GT(stats.tenants[0].writer_sections, 0u);
  EXPECT_EQ(stats.tenants[1].detections, 0u)
      << "the attack must not bleed into the other tenant";
}

TEST_F(ServeHostTest, RowhammerTripsQuarantineThenReadmits) {
  ServeOptions opts;
  opts.workers = 2;
  opts.scan = true;
  opts.scan_shard_bytes = 4096;
  opts.quarantine_threshold = 1;  // one detection trips (aggressive)
  opts.quarantine_window_ms = 5000;
  opts.quarantine_backoff_ms = 200;
  opts.quarantine_backoff_max_ms = 1000;
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  // A spatially correlated rowhammer burst against tenant 0. Many rows:
  // the radar2 signature only covers MSB flips, so the burst must be
  // large enough that some of its (uniform-bit) flips hit bit 7.
  const std::size_t made = host.inject_rowhammer(
      0, /*rows=*/16, /*activations=*/150000, /*double_sided=*/true,
      /*seed=*/7);
  EXPECT_GT(made, 0u) << "burst produced no weight flips";

  // The scanner must detect, trip the quarantine and run the full
  // re-verify. Poll generously — CI machines are slow under load.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  HostStats stats;
  while (std::chrono::steady_clock::now() < deadline) {
    stats = host.stats();
    if (stats.tenants[0].quarantines > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(stats.tenants[0].quarantines, 0u) << "quarantine never tripped";

  // While quarantined, tenant 0's requests are shed with a distinct
  // error and tenant 1 keeps serving uninterrupted. The readmission
  // backoff (>=200ms) gives us a window to observe the shedding; skip
  // the assertions gracefully if readmission already happened.
  const nn::Tensor in0 = host.dataset(0).test_batch(0, 1).images;
  const nn::Tensor in1 = host.dataset(1).test_batch(0, 1).images;
  if (host.stats().tenants[0].quarantined) {
    const InferenceResult shed = host.infer(0, in0);
    if (!shed.ok) {
      EXPECT_EQ(shed.error, "tenant quarantined");
    }
  }
  const InferenceResult other = host.infer(1, in1);
  EXPECT_TRUE(other.ok) << "other tenants must continue: " << other.error;

  // Auto-readmission after the backoff, and service is restored (the
  // quarantine re-verified and repaired the arena against the golden
  // copy, so no further detections re-trip it).
  while (std::chrono::steady_clock::now() < deadline) {
    stats = host.stats();
    if (stats.tenants[0].readmits > 0 && !stats.tenants[0].quarantined) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(stats.tenants[0].readmits, 0u) << "tenant never readmitted";
  EXPECT_FALSE(stats.tenants[0].quarantined);
  const InferenceResult after = host.infer(0, in0);
  EXPECT_TRUE(after.ok) << "readmitted tenant must serve again: "
                        << after.error;

  host.stop();
  const HostStats fin = host.stats();
  EXPECT_GT(fin.tenants[0].detections, 0u);
  EXPECT_GT(fin.tenants[0].groups_recovered, 0u);
  EXPECT_EQ(fin.tenants[0].faults_injected, made);
  // radar2's 2-bit signature only covers MSB flips; the quarantine's
  // byte-exact golden scrub must have cleaned the non-MSB remainder of
  // the burst that the scheme's codes could not see.
  EXPECT_GT(fin.tenants[0].bytes_scrubbed, 0u);
  EXPECT_EQ(fin.tenants[1].detections, 0u)
      << "the burst must not bleed into the other tenant";
  EXPECT_EQ(fin.tenants[1].quarantines, 0u);
}

TEST_F(ServeHostTest, QuarantineDisabledByZeroThreshold) {
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = true;
  opts.scan_shard_bytes = 4096;
  opts.quarantine_threshold = 0;  // detections never quarantine
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  EXPECT_GT(host.inject_rowhammer(0, 16, 150000, true, 21), 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  HostStats stats;
  while (std::chrono::steady_clock::now() < deadline) {
    stats = host.stats();
    if (stats.tenants[0].detections > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  host.stop();
  EXPECT_GT(stats.tenants[0].detections, 0u);
  EXPECT_EQ(stats.tenants[0].quarantines, 0u)
      << "threshold 0 must disable quarantine";
}

TEST_F(ServeHostTest, OpenLoopShedsWhenQueueIsFull) {
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.scan = false;
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  const nn::Tensor input = host.dataset(0).test_batch(0, 1).images;
  std::vector<std::future<InferenceResult>> pending;
  std::uint64_t accepted = 0, shed = 0;
  for (int i = 0; i < 64; ++i) {
    std::future<InferenceResult> fut;
    if (host.try_infer_async(0, input, fut)) {
      pending.push_back(std::move(fut));
      ++accepted;
    } else {
      ++shed;
    }
  }
  for (auto& f : pending) f.get();  // inputs must outlive the futures
  host.stop();
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(host.stats().queue_rejected, shed);
}

// ---------------------------------------------------------------------
// Daemon line protocol (in-process dispatch; the socket transport is
// exercised by the CI smoke job via serve_loadgen --connect).
// ---------------------------------------------------------------------
TEST_F(ServeHostTest, DaemonProtocol) {
  ServeOptions opts;
  opts.workers = 1;
  ModelHost host(opts);
  add_two_tenants(host);
  const std::string sock =
      "/tmp/radar_test_serve_sock_" + std::to_string(::getpid());
  Daemon daemon(host, sock);
  daemon.start();  // also starts the host and builds the input pools
  EXPECT_TRUE(daemon.running());
  EXPECT_TRUE(std::filesystem::exists(sock));

  EXPECT_EQ(daemon.handle_line("PING"), "PONG");
  EXPECT_EQ(daemon.handle_line("TENANTS"), "OK alpha beta");
  EXPECT_EQ(daemon.handle_line("SCAN OFF"), "OK");
  EXPECT_EQ(daemon.handle_line("SCAN sideways"), "ERR usage: SCAN ON|OFF");
  EXPECT_EQ(daemon.handle_line("DETECTIONS"), "OK 0");
  EXPECT_EQ(daemon.handle_line("BOGUS"), "ERR unknown command BOGUS");
  EXPECT_EQ(daemon.handle_line(""), "ERR empty command");
  EXPECT_EQ(daemon.handle_line("INFER nobody"), "ERR unknown tenant nobody");

  // Rowhammer-burst injection form (scanning is OFF: flips land but
  // stay undetected within this test).
  const std::string rh = daemon.handle_line("INJECT alpha rowhammer 1 150000 5");
  EXPECT_EQ(rh.rfind("OK ", 0), 0u) << rh;
  const std::string rh2 =
      daemon.handle_line("INJECT alpha rowhammer 1 150000 5 double");
  EXPECT_EQ(rh2.rfind("OK ", 0), 0u) << rh2;
  EXPECT_EQ(daemon.handle_line("INJECT alpha rowhammer 1").rfind("ERR usage", 0),
            0u);
  EXPECT_EQ(daemon.handle_line("INJECT alpha rowhammer 1 150000 5 sideways")
                .rfind("ERR usage", 0),
            0u);

  const std::string infer = daemon.handle_line("INFER beta");
  EXPECT_EQ(infer.rfind("OK ", 0), 0u) << infer;

  const std::string stats = daemon.handle_line("STATS");
  EXPECT_NE(stats.find("\"name\":\"alpha\""), std::string::npos) << stats;

  EXPECT_EQ(daemon.handle_line("SCAN ON"), "OK");
  EXPECT_EQ(daemon.handle_line("SHUTDOWN"), "OK");
  daemon.wait();  // returns because SHUTDOWN was requested
  daemon.stop();
  host.stop();
  EXPECT_FALSE(std::filesystem::exists(sock)) << "socket file not cleaned up";
}

// ---------------------------------------------------------------------
// Chaos fault injection: every armed failure mode must be survived —
// the request fails (at worst), the host never hangs or crashes, and
// the self-healing machinery (watchdog, degraded-golden fallback)
// leaves the system serving again.
// ---------------------------------------------------------------------
class ChaosServeTest : public ServeHostTest {
 protected:
  void SetUp() override { chaos::FaultRegistry::instance().disarm_all(); }
  void TearDown() override { chaos::FaultRegistry::instance().disarm_all(); }

  /// Poll `done` until it returns true or `sec` seconds elapse.
  static bool eventually(int sec, const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(sec);
    while (std::chrono::steady_clock::now() < deadline) {
      if (done()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return done();
  }
};

TEST_F(ChaosServeTest, StalledScannerIsRestartedByWatchdog) {
  chaos::FaultRegistry::instance().arm(
      chaos::points::kScannerStall,
      {.prob = 1.0, .seed = 7, .param = 5000, .max_fires = 1});
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = true;
  opts.scan_shard_bytes = 4096;
  opts.watchdog_interval_ms = 20;
  opts.scanner_stall_ms = 100;
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  ASSERT_TRUE(eventually(
      20, [&] { return host.stats().scanner_restarts >= 1; }))
      << "watchdog never restarted the stalled scanner";

  // The respawned scanner must actually scan: an injection is detected.
  EXPECT_GT(host.inject_faults(0, 6, 42), 0u);
  EXPECT_TRUE(eventually(
      30, [&] { return host.stats().tenants[0].detections > 0; }))
      << "restarted scanner never detected the injection";
  host.stop();
}

TEST_F(ChaosServeTest, CrashedScannerIsRestartedByWatchdog) {
  chaos::FaultRegistry::instance().arm(
      chaos::points::kScannerCrash,
      {.prob = 1.0, .seed = 7, .max_fires = 1});
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = true;
  opts.scan_shard_bytes = 4096;
  opts.watchdog_interval_ms = 20;
  opts.scanner_stall_ms = 100;
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  ASSERT_TRUE(eventually(20, [&] {
    const HostStats s = host.stats();
    return s.scanner_crashes >= 1 && s.scanner_restarts >= 1;
  })) << "scanner crash was not caught + restarted";

  EXPECT_GT(host.inject_faults(0, 6, 42), 0u);
  EXPECT_TRUE(eventually(
      30, [&] { return host.stats().tenants[0].detections > 0; }));
  host.stop();
}

TEST_F(ChaosServeTest, WorkerExceptionFailsOnlyThatRequest) {
  chaos::FaultRegistry::instance().arm(
      chaos::points::kWorkerException,
      {.prob = 1.0, .seed = 7, .max_fires = 1});
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = false;
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  const nn::Tensor input = host.dataset(0).test_batch(0, 1).images;
  const InferenceResult bad = host.infer(0, input);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("injected worker exception"), std::string::npos)
      << bad.error;
  const InferenceResult good = host.infer(0, input);
  EXPECT_TRUE(good.ok) << "one exception must not poison the worker: "
                       << good.error;
  host.stop();
  EXPECT_EQ(host.stats().tenants[0].errors, 1u);
}

TEST_F(ChaosServeTest, WedgedWorkerRequestFailedByWatchdog) {
  chaos::FaultRegistry::instance().arm(
      chaos::points::kWorkerStall,
      {.prob = 1.0, .seed = 7, .param = 1500, .max_fires = 1});
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = false;
  opts.watchdog_interval_ms = 20;
  opts.worker_stall_ms = 100;
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  const nn::Tensor input = host.dataset(0).test_batch(0, 1).images;
  const auto t0 = std::chrono::steady_clock::now();
  const InferenceResult r = host.infer(0, input);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "worker wedged (watchdog)");
  EXPECT_LT(waited, std::chrono::milliseconds(1400))
      << "the client must unblock before the wedge clears";
  EXPECT_GE(host.stats().worker_flags, 1u);

  // Once the stall passes the worker drains the queue again.
  const InferenceResult after = host.infer(0, input);
  EXPECT_TRUE(after.ok) << after.error;
  EXPECT_EQ(host.stats().workers_wedged, 0u)
      << "a completed request clears the wedged flag";
  host.stop();
}

TEST_F(ChaosServeTest, FailedRecoveryRetriedNextSweep) {
  chaos::FaultRegistry::instance().arm(
      chaos::points::kRecoveryFail,
      {.prob = 1.0, .seed = 7, .max_fires = 1});
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = true;
  opts.scan_shard_bytes = 4096;
  opts.quarantine_threshold = 0;  // isolate the recovery path
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  EXPECT_GT(host.inject_faults(0, 6, 42), 0u);
  ASSERT_TRUE(eventually(
      30, [&] { return host.stats().tenants[0].recover_failures >= 1; }))
      << "injected recovery failure never observed";
  // The corruption is still there; the next sweep re-detects and the
  // (now-exhausted) fault lets the repair land.
  EXPECT_TRUE(eventually(
      30, [&] { return host.stats().tenants[0].groups_recovered > 0; }))
      << "recovery never succeeded after the injected failure";
  host.stop();
}

TEST_F(ChaosServeTest, TornGoldenReadDegradesThenHeals) {
  chaos::FaultRegistry::instance().arm(
      chaos::points::kGoldenTornRead,
      {.prob = 1.0, .seed = 7, .max_fires = 1});
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = true;
  opts.scan_shard_bytes = 4096;
  opts.quarantine_threshold = 0;
  opts.reopen_backoff_ms = 50;
  ModelHost host(opts);
  add_two_tenants(host);
  if (!host.stats().tenants[0].golden_mmapped)
    GTEST_SKIP() << "no mmap'd golden on this platform/package";
  host.start();

  EXPECT_GT(host.inject_faults(0, 6, 42), 0u);
  // The torn read fires when recovery first consults the golden
  // mapping: the tenant degrades to its snapshot fallback...
  ASSERT_TRUE(eventually(
      30, [&] { return host.stats().tenants[0].degrades >= 1; }))
      << "torn golden read never degraded the tenant";
  // ...recovery still works (from the snapshot)...
  EXPECT_TRUE(eventually(
      30, [&] { return host.stats().tenants[0].groups_recovered > 0; }));
  // ...and after the re-open backoff the mapping verifies end-to-end
  // again (the fault is exhausted) and the tenant heals.
  ASSERT_TRUE(eventually(30, [&] {
    const TenantStats t = host.stats().tenants[0];
    return t.heals >= 1 && !t.degraded;
  })) << "package re-open never healed the degraded golden";
  host.stop();
}

#if defined(__unix__) || defined(__APPLE__)
TEST_F(ChaosServeTest, PackageTruncatedAfterMmapDegradesNotCrashes) {
  // Not an injected fault: the package file really is shrunk under the
  // live mapping, so every later golden read lands on discarded pages
  // and raises a genuine SIGBUS. The guarded CRC check must convert
  // that into a degrade-to-snapshot, never a dead process.
  const std::string trunc = "/tmp/radar_test_serve_trunc_" +
                            std::to_string(::getpid()) + ".rpkg";
  std::filesystem::copy_file(
      *pkg_a_, trunc, std::filesystem::copy_options::overwrite_existing);
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = true;
  opts.scan_shard_bytes = 4096;
  opts.quarantine_threshold = 0;
  opts.reopen_backoff_ms = 20;
  ModelHost host(opts);
  TenantConfig cfg;
  cfg.name = "trunc";
  cfg.package_path = trunc;
  ASSERT_EQ(host.add_tenant(cfg), 0u);
  if (!host.stats().tenants[0].golden_mmapped) {
    std::filesystem::remove(trunc);
    GTEST_SKIP() << "no mmap'd golden on this platform/package";
  }
  host.start();
  ASSERT_EQ(::truncate(trunc.c_str(), 0), 0);

  EXPECT_GT(host.inject_faults(0, 6, 42), 0u);
  ASSERT_TRUE(eventually(
      30, [&] { return host.stats().tenants[0].degrades >= 1; }))
      << "truncated golden mapping never degraded the tenant";
  // Recovery proceeds from the in-memory snapshot fallback...
  EXPECT_TRUE(eventually(
      30, [&] { return host.stats().tenants[0].groups_recovered > 0; }))
      << "snapshot-fallback recovery never repaired the injection";
  // ...the tenant keeps serving, and the periodic re-open keeps failing
  // (the bytes on disk are gone for good) without healing or crashing.
  const InferenceResult r =
      host.infer(0, host.dataset(0).test_batch(0, 1).images);
  EXPECT_TRUE(r.ok) << r.error;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const TenantStats t = host.stats().tenants[0];
  EXPECT_TRUE(t.degraded);
  EXPECT_EQ(t.heals, 0u) << "a truncated package must never re-verify";
  host.stop();
  std::filesystem::remove(trunc);
}
#endif  // __unix__ || __APPLE__

TEST_F(ChaosServeTest, StarvedScanBudgetRaisesCoverageAlarms) {
  // A zero byte budget is a legal (if hostile) QoS setting: the
  // scheduler starves, no sweep ever completes, and the coverage-age
  // alarm is the only signal that detection has silently stopped.
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = true;
  opts.scan_budget_bytes = 0;
  opts.coverage_period_ms = 25;  // deadline the starved scanner must miss
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  EXPECT_GT(host.inject_faults(0, 6, 42), 0u);
  ASSERT_TRUE(eventually(20, [&] {
    const HostStats s = host.stats();
    return s.tenants[0].coverage_alarms >= 1 &&
           s.tenants[1].coverage_alarms >= 1;
  })) << "starved scanner never raised a coverage alarm";

  const HostStats s = host.stats();
  for (const TenantStats& t : s.tenants) {
    EXPECT_EQ(t.shards_scanned, 0u) << "starved slices must not scan";
    EXPECT_EQ(t.sweeps, 0u);
    EXPECT_EQ(t.scan_cursor, 0u);
    EXPECT_EQ(t.detections, 0u)
        << "a starved scanner cannot have detected anything";
  }
  EXPECT_EQ(s.tenants[0].coverage_period_ms, -1) << "no sweep completed";
  // Starvation throttles scanning, never traffic.
  const InferenceResult r =
      host.infer(0, host.dataset(0).test_batch(0, 1).images);
  EXPECT_TRUE(r.ok) << r.error;
  host.stop();
}

TEST_F(ChaosServeTest, ExpiredRequestsDroppedWithoutForwardPass) {
  // One worker held busy by a slow request; a short-deadline request
  // queued behind it must be dropped, not computed.
  chaos::FaultRegistry::instance().arm(
      chaos::points::kInferSlow,
      {.prob = 1.0, .seed = 7, .param = 300, .max_fires = 1});
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = false;
  ModelHost host(opts);
  add_two_tenants(host);
  host.start();

  const nn::Tensor input = host.dataset(0).test_batch(0, 1).images;
  std::future<InferenceResult> slow;
  ASSERT_TRUE(host.try_infer_async(0, input, slow));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const InferenceResult dropped = host.infer(0, input, /*deadline_ms=*/50);
  EXPECT_FALSE(dropped.ok);
  EXPECT_EQ(dropped.error, "deadline exceeded");
  EXPECT_TRUE(slow.get().ok) << "the slow request itself still completes";
  host.stop();
  const TenantStats t = host.stats().tenants[0];
  EXPECT_EQ(t.deadline_expired, 1u);
  EXPECT_EQ(t.errors, 0u)
      << "a deadline drop is the client's timeout, not a model error";
}

TEST_F(ChaosServeTest, DaemonChaosCommand) {
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = false;
  ModelHost host(opts);
  add_two_tenants(host);
  const std::string sock =
      "/tmp/radar_test_chaos_sock_" + std::to_string(::getpid());
  Daemon daemon(host, sock);
  daemon.start();

  EXPECT_EQ(daemon.handle_line("CHAOS ARM worker.exception 1 7 0 1"), "OK");
  const std::string st = daemon.handle_line("CHAOS STATS");
  EXPECT_NE(st.find("\"name\":\"worker.exception\""), std::string::npos) << st;
  // The armed point is live: the next request fails with the injected
  // exception, the one after succeeds (max_fires=1).
  const std::string bad = daemon.handle_line("INFER alpha");
  EXPECT_EQ(bad.rfind("ERR", 0), 0u) << bad;
  const std::string good = daemon.handle_line("INFER alpha 5000");
  EXPECT_EQ(good.rfind("OK ", 0), 0u) << good;

  EXPECT_EQ(daemon.handle_line("CHAOS DISARM worker.exception"), "OK");
  EXPECT_EQ(daemon.handle_line("CHAOS DISARM worker.exception"),
            "ERR not armed: worker.exception");
  EXPECT_EQ(daemon.handle_line("CHAOS DISARM ALL"), "OK");
  EXPECT_EQ(daemon.handle_line("CHAOS").rfind("ERR usage", 0), 0u);
  EXPECT_EQ(daemon.handle_line("CHAOS BOGUS").rfind("ERR usage", 0), 0u);
  EXPECT_EQ(daemon.handle_line("CHAOS ARM p notanumber 1").rfind("ERR", 0),
            0u);
  EXPECT_EQ(daemon.handle_line("CHAOS ARM p 2.0 1").rfind("ERR", 0), 0u)
      << "prob out of range must be rejected";
  // CHAOS STATS writes point names unescaped: a quote would break it.
  EXPECT_EQ(daemon.handle_line("CHAOS ARM a\"b 0.5 1").rfind("ERR", 0), 0u);
  EXPECT_EQ(daemon.handle_line("CHAOS STATS"), "OK {\"points\":[]}");

  daemon.stop();
  host.stop();
}

#if RADAR_TEST_HAVE_UNIX_SOCKETS
// ---------------------------------------------------------------------
// Daemon socket fuzz: malformed, oversized, truncated and vanishing
// clients must never take the daemon down or wedge a handler thread.
// ---------------------------------------------------------------------
namespace fuzz {

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = ::write(fd, data.data() + off, data.size() - off);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Read one reply line ("" on EOF/error before a newline).
std::string read_line(int fd) {
  std::string reply;
  char c;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return "";
    if (c == '\n') return reply;
    reply.push_back(c);
  }
}

}  // namespace fuzz

TEST_F(ServeHostTest, DaemonSurvivesMalformedClients) {
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = false;
  ModelHost host(opts);
  add_two_tenants(host);
  const std::string sock =
      "/tmp/radar_test_fuzz_sock_" + std::to_string(::getpid());
  Daemon daemon(host, sock, /*conn_timeout_ms=*/5000);
  daemon.start();

  // Binary garbage is an unknown command, not a crash.
  {
    const int fd = fuzz::connect_unix(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(fuzz::send_all(fd, "\x01\x02\xfe\xffgarbage\r\n"));
    const std::string r = fuzz::read_line(fd);
    EXPECT_EQ(r.rfind("ERR", 0), 0u) << r;
    ::close(fd);
  }

  // An unterminated line over the cap gets one error reply and the door.
  {
    const int fd = fuzz::connect_unix(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(fuzz::send_all(
        fd, std::string(Daemon::kMaxLineBytes + 512, 'A')));
    EXPECT_EQ(fuzz::read_line(fd), "ERR line too long");
    EXPECT_EQ(fuzz::read_line(fd), "") << "connection must be closed";
    ::close(fd);
  }

  // A terminated-but-oversized line: same contract.
  {
    const int fd = fuzz::connect_unix(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(fuzz::send_all(
        fd, std::string(Daemon::kMaxLineBytes + 1, 'B') + "\n"));
    EXPECT_EQ(fuzz::read_line(fd), "ERR line too long");
    ::close(fd);
  }

  // Truncated commands and bad arguments reply ERR, connection stays up.
  {
    const int fd = fuzz::connect_unix(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(fuzz::send_all(fd, "INFER\n"));
    EXPECT_EQ(fuzz::read_line(fd), "ERR usage: INFER <tenant> [deadline_ms]");
    ASSERT_TRUE(fuzz::send_all(fd, "INFER alpha notanumber\n"));
    EXPECT_EQ(fuzz::read_line(fd).rfind("ERR", 0), 0u);
    ASSERT_TRUE(fuzz::send_all(fd, "INJECT alpha\n"));
    EXPECT_EQ(fuzz::read_line(fd).rfind("ERR usage", 0), 0u);
    ASSERT_TRUE(fuzz::send_all(fd, "PING\n"));
    EXPECT_EQ(fuzz::read_line(fd), "PONG");
    ::close(fd);
  }

  // Mid-command disconnects and rapid connect/close churn.
  for (int i = 0; i < 10; ++i) {
    const int fd = fuzz::connect_unix(sock);
    ASSERT_GE(fd, 0);
    if (i % 2 == 0) fuzz::send_all(fd, "INFER al");  // no newline
    ::close(fd);
  }
  // Two commands in one write; reply order is preserved.
  {
    const int fd = fuzz::connect_unix(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(fuzz::send_all(fd, "PING\nTENANTS\n"));
    EXPECT_EQ(fuzz::read_line(fd), "PONG");
    EXPECT_EQ(fuzz::read_line(fd), "OK alpha beta");
    ::close(fd);
  }

  // After all of that the daemon still serves.
  {
    const int fd = fuzz::connect_unix(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(fuzz::send_all(fd, "INFER beta 5000\n"));
    EXPECT_EQ(fuzz::read_line(fd).rfind("OK ", 0), 0u);
    ::close(fd);
  }
  EXPECT_TRUE(daemon.running());
  daemon.stop();
  host.stop();
}

TEST_F(ServeHostTest, DaemonClosesIdleConnections) {
  ServeOptions opts;
  opts.workers = 1;
  opts.scan = false;
  ModelHost host(opts);
  add_two_tenants(host);
  const std::string sock =
      "/tmp/radar_test_idle_sock_" + std::to_string(::getpid());
  Daemon daemon(host, sock, /*conn_timeout_ms=*/200);
  daemon.start();

  const int fd = fuzz::connect_unix(sock);
  ASSERT_GE(fd, 0);
  // Say nothing; the daemon must hang up on us within the timeout (plus
  // its 100ms poll slice), observable as EOF.
  EXPECT_EQ(fuzz::read_line(fd), "") << "idle connection was not closed";
  ::close(fd);
  daemon.stop();
  host.stop();
}
#endif  // RADAR_TEST_HAVE_UNIX_SOCKETS

}  // namespace
}  // namespace radar::serve
