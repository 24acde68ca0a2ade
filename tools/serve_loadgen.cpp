// serve_loadgen — open-loop load generator for the RADAR serving daemon.
//
// Drives a ModelHost either in-process (default; self-provisions two
// signed demo tenants when no --tenant is given) or over the daemon's
// Unix socket (--connect), through three phases of identical traffic:
//
//   1. scan_off  — background integrity scanning disabled (baseline)
//   2. scan_on   — scanning enabled (the protection overhead under load)
//   3. attack    — scanning on; at 25% of the phase `--inject-flips`
//                  random MSBs are flipped in the hottest tenant (or, with
//                  --inject-rowhammer N, a spatially correlated N-row
//                  hammer burst lands instead), and the time until the
//                  scanner's first detection is recorded
//
// Traffic is open-loop: each client thread draws Poisson inter-arrivals
// (with periodic burst windows at --burst-factor x the base rate) and
// Zipf-skewed tenant popularity, and measures latency from the INTENDED
// arrival time — so server queueing during bursts shows up in the tail
// instead of being hidden by coordinated omission.
//
// Transient refusals (queue shed, quarantined tenant — anything the
// server tags RETRY-AFTER) get up to --max-retries inline retries with
// exponential backoff + jitter; the retried request's total wait counts
// against its intended arrival, so retries cost tail latency, honestly.
//
// Results land as a human table plus BENCH_serve.json (p50/p99/p999 per
// phase, throughput, retries, time-to-detect; in-process, also the mean
// per-tenant bring-up time and resident-memory growth). Exit code 1 when
// an injection was requested but never detected — the CI smoke contract.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/package.h"
#include "core/scheme_registry.h"
#include "exp/workspace.h"
#include "serve/host.h"
#include "serve/latency_histogram.h"

#if defined(__unix__) || defined(__APPLE__)
#define LOADGEN_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define LOADGEN_HAVE_UNIX_SOCKETS 0
#endif

namespace {

using namespace radar;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string connect;                ///< daemon socket (empty: in-process)
  std::vector<std::string> tenants;   ///< name=package (in-process mode)
  std::string model = "tiny";
  std::size_t workers = 2;        ///< in-process host inference workers
  std::size_t threads = 2;        ///< client threads
  double rate = 200.0;            ///< total requests/sec (base, pre-burst)
  double burst_factor = 4.0;      ///< rate multiplier inside burst windows
  double zipf_s = 1.0;            ///< tenant popularity skew exponent
  std::int64_t duration_ms = 1000;  ///< per phase
  int inject_flips = 8;
  int inject_rowhammer = 0;  ///< victim rows to hammer (0: iid flips)
  std::int64_t rh_activations = 150000;  ///< aggressor activations per row
  std::uint64_t seed = 0x10ADU;
  // Scan QoS passthrough (in-process mode); INT64_MIN = host default.
  std::int64_t scan_budget_us = INT64_MIN;
  std::int64_t scan_budget_bytes = INT64_MIN;
  std::int64_t coverage_period_ms = INT64_MIN;
  bool shutdown = false;  ///< socket mode: send SHUTDOWN when done
  std::int64_t deadline_ms = 0;  ///< per-request deadline (0: none)
  // Shed/quarantined replies are retryable, not terminal: bounded
  // retries with exponential backoff + jitter, honoring the server's
  // RETRY-AFTER hint. Retries run inline in the client loop, so their
  // cost lands in the coordinated-omission-safe latency tail.
  int max_retries = 3;
  std::int64_t retry_base_ms = 2;

  bool attacking() const { return inject_flips > 0 || inject_rowhammer > 0; }
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--connect") o.connect = next("--connect");
    else if (a == "--tenant") o.tenants.push_back(next("--tenant"));
    else if (a == "--model") o.model = next("--model");
    else if (a == "--workers") o.workers = static_cast<std::size_t>(std::atoi(next("--workers")));
    else if (a == "--threads") o.threads = static_cast<std::size_t>(std::atoi(next("--threads")));
    else if (a == "--rate") o.rate = std::atof(next("--rate"));
    else if (a == "--burst-factor") o.burst_factor = std::atof(next("--burst-factor"));
    else if (a == "--zipf-s") o.zipf_s = std::atof(next("--zipf-s"));
    else if (a == "--duration-ms") o.duration_ms = std::atoll(next("--duration-ms"));
    else if (a == "--inject-flips") o.inject_flips = std::atoi(next("--inject-flips"));
    else if (a == "--inject-rowhammer") o.inject_rowhammer = std::atoi(next("--inject-rowhammer"));
    else if (a == "--rh-activations") o.rh_activations = std::atoll(next("--rh-activations"));
    else if (a == "--seed") o.seed = std::strtoull(next("--seed"), nullptr, 0);
    else if (a == "--scan-budget-us") o.scan_budget_us = std::atoll(next("--scan-budget-us"));
    else if (a == "--scan-budget-bytes") o.scan_budget_bytes = std::atoll(next("--scan-budget-bytes"));
    else if (a == "--coverage-period-ms") o.coverage_period_ms = std::atoll(next("--coverage-period-ms"));
    else if (a == "--shutdown") o.shutdown = true;
    else if (a == "--deadline-ms") o.deadline_ms = std::atoll(next("--deadline-ms"));
    else if (a == "--max-retries") o.max_retries = std::atoi(next("--max-retries"));
    else if (a == "--retry-base-ms") o.retry_base_ms = std::atoll(next("--retry-base-ms"));
    else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    }
  }
  if (o.threads < 1 || o.rate <= 0.0 || o.duration_ms < 1) {
    std::fprintf(stderr, "--threads/--rate/--duration-ms must be positive\n");
    return false;
  }
  return true;
}

/// Zipf CDF over `n` ranks: P(i) ~ 1/(i+1)^s.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s) / total;
    cdf[i] = acc;
  }
  cdf[n - 1] = 1.0;
  return cdf;
}

std::size_t zipf_pick(const std::vector<double>& cdf, double u) {
  for (std::size_t i = 0; i < cdf.size(); ++i)
    if (u <= cdf[i]) return i;
  return cdf.size() - 1;
}

/// This process's resident set (VmRSS) in KiB; -1 where /proc is absent.
std::int64_t vm_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  std::int64_t kib = -1;
  while (in >> key) {
    if (key == "VmRSS:") {
      in >> kib;
      break;
    }
    in.ignore(1 << 16, '\n');
  }
  return kib;
}

// ---------------------------------------------------------------------
// Backend: the loadgen's view of the serving system. Control operations
// run on the main thread; infer() must be safe from every client thread.
// ---------------------------------------------------------------------
/// One inference attempt as the client saw it. `retryable` marks
/// transient server-side refusals (shed queue, quarantined tenant) that
/// deserve a backoff + retry rather than a terminal error sample.
struct InferOutcome {
  bool ok = false;
  bool retryable = false;
  std::int64_t retry_after_ms = -1;  ///< server hint; -1 when absent
};

class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::size_t num_tenants() const = 0;
  virtual std::string tenant_name(std::size_t t) const = 0;
  /// Blocking inference from any client thread.
  virtual InferOutcome infer(std::size_t thread_id, std::size_t tenant) = 0;
  virtual void set_scanning(bool on) = 0;
  virtual std::size_t inject(std::size_t tenant, int flips,
                             std::uint64_t seed) = 0;
  /// Spatially correlated rowhammer burst (single-sided).
  virtual std::size_t inject_rowhammer(std::size_t tenant, int rows,
                                       std::int64_t activations,
                                       std::uint64_t seed) = 0;
  virtual std::uint64_t detections() = 0;
  /// Server-side time-to-detect in ns when the backend can see it
  /// (-1: unknown; the caller falls back to the client-observed value).
  virtual std::int64_t server_ttd_ns(std::size_t) { return -1; }
  /// Scan QoS telemetry when visible (-1: unknown). Coverage period is
  /// the worst (longest) last-sweep duration across tenants; bytes/sec
  /// is summed across tenants.
  virtual double coverage_period_ms() { return -1.0; }
  virtual double scan_bytes_per_sec() { return -1.0; }
  /// Mean add_tenant wall time and VmRSS growth per tenant when the
  /// backend brought the tenants up itself (NaN: unknown).
  virtual double tenant_bringup_ms() const { return std::nan(""); }
  virtual double tenant_rss_kib() const { return std::nan(""); }
  virtual void shutdown() {}
};

/// In-process: owns the ModelHost (tenants from --tenant specs, or two
/// self-signed demo packages when none are given).
class InProcessBackend : public Backend {
 public:
  InProcessBackend(const Options& o) : deadline_ms_(o.deadline_ms) {
    serve::ServeOptions opts;
    opts.workers = o.workers;
    if (o.scan_budget_us != INT64_MIN)
      opts.scan_budget_us = o.scan_budget_us;
    if (o.scan_budget_bytes != INT64_MIN)
      opts.scan_budget_bytes = o.scan_budget_bytes;
    if (o.coverage_period_ms != INT64_MIN)
      opts.coverage_period_ms = o.coverage_period_ms;
    host_ = std::make_unique<serve::ModelHost>(opts);

    std::vector<std::pair<std::string, std::string>> specs;
    for (const std::string& spec : o.tenants) {
      const std::size_t eq = spec.find('=');
      RADAR_REQUIRE(eq != std::string::npos && eq > 0,
                    "bad --tenant spec (want name=package): " + spec);
      specs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    }
    if (specs.empty()) specs = provision_demo_tenants(o);

    const std::int64_t rss0 = vm_rss_kib();
    const auto t0 = Clock::now();
    for (const auto& [name, pkg] : specs) {
      serve::TenantConfig cfg;
      cfg.name = name;
      cfg.package_path = pkg;
      cfg.model_id = o.model;
      host_->add_tenant(cfg);
    }
    const double n = static_cast<double>(specs.size());
    bringup_ms_ =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count() /
        n;
    const std::int64_t rss1 = vm_rss_kib();
    if (rss0 >= 0 && rss1 >= 0)
      rss_kib_ = static_cast<double>(rss1 - rss0) / n;

    // Pre-slice a pool of single-image inputs per tenant so the hot loop
    // never allocates tensors.
    for (std::size_t t = 0; t < host_->num_tenants(); ++t) {
      const auto& ds = host_->dataset(t);
      const std::int64_t n = std::min<std::int64_t>(64, ds.test_size());
      inputs_.emplace_back();
      for (std::int64_t i = 0; i < n; ++i)
        inputs_.back().push_back(ds.test_batch(i, 1).images);
    }
    host_->start();
  }

  ~InProcessBackend() override {
    host_->stop();
    for (const std::string& p : owned_packages_) std::remove(p.c_str());
  }

  std::size_t num_tenants() const override { return host_->num_tenants(); }
  std::string tenant_name(std::size_t t) const override {
    return host_->tenant_name(t);
  }
  InferOutcome infer(std::size_t, std::size_t tenant) override {
    auto& pool = inputs_[tenant];
    const std::size_t i =
        cursor_.fetch_add(1, std::memory_order_relaxed) % pool.size();
    const serve::InferenceResult r =
        host_->infer(tenant, pool[i], deadline_ms_);
    InferOutcome oc;
    oc.ok = r.ok;
    oc.retry_after_ms = r.retry_after_ms;
    oc.retryable = !r.ok && r.retry_after_ms >= 0;
    return oc;
  }
  void set_scanning(bool on) override { host_->set_scanning(on); }
  std::size_t inject(std::size_t tenant, int flips,
                     std::uint64_t seed) override {
    return host_->inject_faults(tenant, flips, seed);
  }
  std::size_t inject_rowhammer(std::size_t tenant, int rows,
                               std::int64_t activations,
                               std::uint64_t seed) override {
    return host_->inject_rowhammer(tenant, rows, activations,
                                   /*double_sided=*/false, seed);
  }
  std::uint64_t detections() override {
    return host_->stats().total_detections();
  }
  std::int64_t server_ttd_ns(std::size_t tenant) override {
    return host_->stats().tenants.at(tenant).last_ttd_ns;
  }
  double coverage_period_ms() override {
    std::int64_t worst = -1;
    for (const auto& t : host_->stats().tenants)
      worst = std::max(worst, t.coverage_period_ms);
    return static_cast<double>(worst);
  }
  double scan_bytes_per_sec() override {
    std::int64_t total = 0;
    for (const auto& t : host_->stats().tenants)
      total += t.scan_bytes_per_sec;
    return static_cast<double>(total);
  }
  double tenant_bringup_ms() const override { return bringup_ms_; }
  double tenant_rss_kib() const override { return rss_kib_; }

  serve::ModelHost& host() { return *host_; }

 private:
  /// Sign two throwaway demo packages (radar2 / radar3) so a bare
  /// `serve_loadgen` run measures something real.
  std::vector<std::pair<std::string, std::string>> provision_demo_tenants(
      const Options& o) {
    std::vector<std::pair<std::string, std::string>> specs;
    exp::ModelBundle bundle = exp::load_or_train(o.model);
    const char* ids[2] = {"radar2", "radar3"};
    const char* names[2] = {"alpha", "beta"};
    for (int i = 0; i < 2; ++i) {
      core::SchemeParams params;
      auto scheme = core::SchemeRegistry::instance().create(ids[i], params);
      scheme->attach(*bundle.qmodel);
      const std::string path = "/tmp/radar_loadgen_" + std::string(names[i]) +
                               "_" + std::to_string(::getpid()) + ".rpkg";
      core::save_package(path, *bundle.qmodel, *scheme, o.model);
      owned_packages_.push_back(path);
      specs.emplace_back(names[i], path);
    }
    std::printf("provisioned demo tenants: alpha=radar2 beta=radar3\n");
    return specs;
  }

  std::unique_ptr<serve::ModelHost> host_;
  std::vector<std::vector<nn::Tensor>> inputs_;
  std::atomic<std::size_t> cursor_{0};
  std::vector<std::string> owned_packages_;
  std::int64_t deadline_ms_;
  double bringup_ms_ = std::nan("");
  double rss_kib_ = std::nan("");
};

#if LOADGEN_HAVE_UNIX_SOCKETS
/// Socket mode: one connection per client thread plus one control
/// connection, speaking the daemon's line protocol.
class SocketBackend : public Backend {
 public:
  SocketBackend(const std::string& path, std::size_t threads,
                std::int64_t deadline_ms)
      : path_(path), deadline_ms_(deadline_ms) {
    control_ = connect_or_throw();
    for (std::size_t i = 0; i < threads; ++i)
      thread_fds_.push_back(connect_or_throw());
    const std::string r = request(control_, "TENANTS");
    RADAR_REQUIRE(r.rfind("OK", 0) == 0, "TENANTS failed: " + r);
    std::string tok;
    for (std::size_t p = 2; p < r.size();) {
      const std::size_t sp = r.find(' ', p + 1);
      tok = r.substr(p + 1, (sp == std::string::npos ? r.size() : sp) - p - 1);
      if (!tok.empty()) names_.push_back(tok);
      if (sp == std::string::npos) break;
      p = sp;
    }
    RADAR_REQUIRE(!names_.empty(), "daemon reports no tenants");
  }

  ~SocketBackend() override {
    for (int fd : thread_fds_) ::close(fd);
    ::close(control_);
  }

  std::size_t num_tenants() const override { return names_.size(); }
  std::string tenant_name(std::size_t t) const override {
    return names_.at(t);
  }
  InferOutcome infer(std::size_t thread_id, std::size_t tenant) override {
    std::string cmd = "INFER " + names_[tenant];
    if (deadline_ms_ > 0) cmd += " " + std::to_string(deadline_ms_);
    const std::string r = request(thread_fds_.at(thread_id), cmd);
    InferOutcome oc;
    oc.ok = r.rfind("OK", 0) == 0;
    if (!oc.ok) {
      const std::size_t ra = r.find("RETRY-AFTER=");
      if (ra != std::string::npos) {
        oc.retryable = true;
        oc.retry_after_ms = std::atoll(r.c_str() + ra + 12);
      }
    }
    return oc;
  }
  void set_scanning(bool on) override {
    request(control_, on ? "SCAN ON" : "SCAN OFF");
  }
  std::size_t inject(std::size_t tenant, int flips,
                     std::uint64_t seed) override {
    const std::string r =
        request(control_, "INJECT " + names_[tenant] + " " +
                              std::to_string(flips) + " " +
                              std::to_string(seed));
    return r.rfind("OK ", 0) == 0
               ? static_cast<std::size_t>(std::atoll(r.c_str() + 3))
               : 0;
  }
  std::size_t inject_rowhammer(std::size_t tenant, int rows,
                               std::int64_t activations,
                               std::uint64_t seed) override {
    const std::string r = request(
        control_, "INJECT " + names_[tenant] + " rowhammer " +
                      std::to_string(rows) + " " +
                      std::to_string(activations) + " " +
                      std::to_string(seed));
    return r.rfind("OK ", 0) == 0
               ? static_cast<std::size_t>(std::atoll(r.c_str() + 3))
               : 0;
  }
  std::uint64_t detections() override {
    const std::string r = request(control_, "DETECTIONS");
    return r.rfind("OK ", 0) == 0
               ? static_cast<std::uint64_t>(std::atoll(r.c_str() + 3))
               : 0;
  }
  void shutdown() override { request(control_, "SHUTDOWN"); }

 private:
  int connect_or_throw() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    RADAR_REQUIRE(fd >= 0, "socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    RADAR_REQUIRE(path_.size() < sizeof(addr.sun_path),
                  "socket path too long");
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      throw Error("cannot connect to " + path_ + ": " +
                  std::strerror(errno));
    }
    return fd;
  }

  /// One request line -> one reply line (each fd is used by one thread).
  static std::string request(int fd, const std::string& line) {
    const std::string msg = line + "\n";
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t w = ::write(fd, msg.data() + off, msg.size() - off);
      if (w <= 0) throw Error("daemon connection lost (write)");
      off += static_cast<std::size_t>(w);
    }
    std::string reply;
    char c;
    while (true) {
      const ssize_t n = ::read(fd, &c, 1);
      if (n <= 0) throw Error("daemon connection lost (read)");
      if (c == '\n') break;
      reply.push_back(c);
    }
    return reply;
  }

  std::string path_;
  std::int64_t deadline_ms_;
  int control_ = -1;
  std::vector<int> thread_fds_;
  std::vector<std::string> names_;
};
#endif  // LOADGEN_HAVE_UNIX_SOCKETS

// ---------------------------------------------------------------------
// One traffic phase: T open-loop client threads, shared histogram.
// ---------------------------------------------------------------------
struct PhaseResult {
  serve::LatencyHistogram::Snapshot latency;
  std::uint64_t sent = 0, failed = 0;
  std::uint64_t retries = 0;   ///< total retry attempts across requests
  std::uint64_t retried = 0;   ///< requests that needed >= 1 retry
  double seconds = 0.0;
  std::int64_t client_ttd_ns = -1;  ///< attack phases only
};

/// Burst windows: 100ms at burst_factor x rate out of every 500ms.
double rate_at(double t_sec, const Options& o) {
  const double phase = std::fmod(t_sec, 0.5);
  return phase < 0.1 ? o.rate * o.burst_factor : o.rate;
}

PhaseResult run_phase(Backend& backend, const Options& o,
                      const std::vector<double>& cdf, std::uint64_t seed,
                      bool attack, std::size_t inject_tenant) {
  PhaseResult out;
  serve::LatencyHistogram hist;
  std::atomic<std::uint64_t> sent{0}, failed{0}, retries{0}, retried{0};
  const auto t_start = Clock::now();
  const auto t_end =
      t_start + std::chrono::milliseconds(o.duration_ms);

  std::vector<std::thread> threads;
  for (std::size_t ti = 0; ti < o.threads; ++ti) {
    threads.emplace_back([&, ti] {
      Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (ti + 1)));
      const double per_thread = 1.0 / static_cast<double>(o.threads);
      auto t_next = t_start;
      while (t_next < t_end) {
        std::this_thread::sleep_until(t_next);  // no-op when behind
        const std::size_t tenant = zipf_pick(cdf, rng.uniform());
        InferOutcome oc;
        int tries = 0;
        bool conn_lost = false;
        while (true) {
          try {
            oc = backend.infer(ti, tenant);
          } catch (const std::exception&) {
            // Socket torn down under us (chaos disconnect, daemon
            // death): this thread's connection is gone for good.
            conn_lost = true;
            break;
          }
          if (oc.ok || !oc.retryable || tries >= o.max_retries) break;
          // Exponential backoff with jitter, floored at the server's
          // RETRY-AFTER hint; runs inline so the retried request's full
          // wait lands in the intended-arrival latency below.
          const std::int64_t base_ms = o.retry_base_ms << tries;
          const std::int64_t wait_ms =
              std::max(base_ms, oc.retry_after_ms) +
              static_cast<std::int64_t>(rng.uniform() *
                                        static_cast<double>(base_ms));
          ++tries;
          std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
        }
        if (tries > 0) {
          retries.fetch_add(static_cast<std::uint64_t>(tries),
                            std::memory_order_relaxed);
          retried.fetch_add(1, std::memory_order_relaxed);
        }
        if (conn_lost) {
          sent.fetch_add(1, std::memory_order_relaxed);
          failed.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        const bool ok = oc.ok;
        const auto t_done = Clock::now();
        // Latency from the INTENDED arrival: backlog during bursts is
        // tail latency, not silently forgiven.
        hist.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t_done - t_next)
                        .count());
        sent.fetch_add(1, std::memory_order_relaxed);
        if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
        const double t_sec =
            std::chrono::duration<double>(t_next - t_start).count();
        const double lambda = rate_at(t_sec, o) * per_thread;
        const double gap = -std::log(1.0 - rng.uniform()) / lambda;
        t_next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap));
      }
    });
  }

  if (attack) {
    // Fire the attack at ~25% of the phase, then poll for the scanner's
    // detection — the client-observed time-to-detect.
    std::this_thread::sleep_until(
        t_start + std::chrono::milliseconds(o.duration_ms / 4));
    const std::uint64_t base = backend.detections();
    const auto t_inject = Clock::now();
    if (o.inject_rowhammer > 0)
      backend.inject_rowhammer(inject_tenant, o.inject_rowhammer,
                               o.rh_activations, o.seed ^ 0xF117);
    else
      backend.inject(inject_tenant, o.inject_flips, o.seed ^ 0xF117);
    while (Clock::now() < t_end) {
      if (backend.detections() > base) {
        out.client_ttd_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t_inject)
                .count();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  for (auto& t : threads) t.join();
  out.latency = hist.snapshot();
  out.sent = sent.load();
  out.failed = failed.load();
  out.retries = retries.load();
  out.retried = retried.load();
  out.seconds = std::chrono::duration<double>(Clock::now() - t_start).count();
  return out;
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf("  %-9s %8llu req (%llu failed, %llu retries) %8.0f req/s   "
              "p50 %8.3fms  p99 %8.3fms  p999 %8.3fms\n",
              name, static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.retries),
              static_cast<double>(r.sent) / r.seconds,
              r.latency.quantile(0.50) / 1e6,
              r.latency.quantile(0.99) / 1e6,
              r.latency.quantile(0.999) / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: serve_loadgen [--connect <socket>] "
                 "[--tenant name=pkg ...] [--model M] [--workers N]\n"
                 "                     [--threads T] [--rate R] "
                 "[--burst-factor F] [--zipf-s S]\n"
                 "                     [--duration-ms D] "
                 "[--inject-flips N] [--inject-rowhammer ROWS]\n"
                 "                     [--rh-activations A] [--seed S] "
                 "[--shutdown]\n"
                 "                     [--scan-budget-us N] "
                 "[--scan-budget-bytes N] [--coverage-period-ms N]\n"
                 "                     [--deadline-ms D] [--max-retries N] "
                 "[--retry-base-ms B]\n");
    return 2;
  }
  try {
    std::unique_ptr<Backend> backend;
    if (!o.connect.empty()) {
#if LOADGEN_HAVE_UNIX_SOCKETS
      backend = std::make_unique<SocketBackend>(o.connect, o.threads,
                                                o.deadline_ms);
#else
      std::fprintf(stderr, "--connect requires unix domain sockets\n");
      return 2;
#endif
    } else {
      backend = std::make_unique<InProcessBackend>(o);
    }

    const std::size_t nt = backend->num_tenants();
    const std::vector<double> cdf = zipf_cdf(nt, o.zipf_s);
    // Zipf rank 0 is the most popular tenant — attack where traffic is.
    const std::size_t hot = 0;

    bench::heading("serve", "multi-tenant daemon under open-loop load");
    std::printf("  tenants:");
    for (std::size_t t = 0; t < nt; ++t)
      std::printf(" %s(%.0f%%)", backend->tenant_name(t).c_str(),
                  100.0 * (cdf[t] - (t ? cdf[t - 1] : 0.0)));
    std::printf("  rate %.0f req/s x%g bursts, %zu client thread(s), "
                "%lldms/phase\n",
                o.rate, o.burst_factor, o.threads,
                static_cast<long long>(o.duration_ms));
    if (!std::isnan(backend->tenant_bringup_ms()))
      std::printf("  tenant bring-up: %.3f ms, %+.0f KiB resident each\n",
                  backend->tenant_bringup_ms(), backend->tenant_rss_kib());
    bench::rule();

    backend->set_scanning(false);
    const PhaseResult off =
        run_phase(*backend, o, cdf, o.seed + 1, false, hot);
    print_phase("scan_off", off);

    backend->set_scanning(true);
    const PhaseResult on =
        run_phase(*backend, o, cdf, o.seed + 2, false, hot);
    print_phase("scan_on", on);

    PhaseResult attack;
    std::int64_t ttd_ns = -1;
    if (o.attacking()) {
      attack = run_phase(*backend, o, cdf, o.seed + 3, true, hot);
      print_phase("attack", attack);
      const std::int64_t server_ttd = backend->server_ttd_ns(hot);
      ttd_ns = server_ttd >= 0 ? server_ttd : attack.client_ttd_ns;
      if (ttd_ns >= 0)
        std::printf("  time-to-detect: %.3fms (%s-observed), scanning "
                    "stayed on under attack\n",
                    ttd_ns / 1e6, server_ttd >= 0 ? "server" : "client");
      else
        std::printf("  time-to-detect: NONE — injection was NOT detected\n");
    }

    // Scan QoS telemetry from the server side (in-process only): the
    // coverage a tenant actually got while the load ran, and the sweep
    // bandwidth the budget allowed.
    const double coverage_ms = backend->coverage_period_ms();
    const double scan_bps = backend->scan_bytes_per_sec();
    if (coverage_ms >= 0.0)
      std::printf("  scan QoS: coverage period %.3fms, %.2f MB/s swept\n",
                  coverage_ms, scan_bps / 1e6);

    if (o.shutdown) backend->shutdown();

    bench::JsonReport report("serve");
    report.add("p50_scan_off", off.latency.quantile(0.50));
    report.add("p99_scan_off", off.latency.quantile(0.99));
    report.add("p999_scan_off", off.latency.quantile(0.999));
    report.add("p50_scan_on", on.latency.quantile(0.50));
    report.add("p99_scan_on", on.latency.quantile(0.99));
    report.add("p999_scan_on", on.latency.quantile(0.999));
    report.add("failed_scan_off", static_cast<double>(off.failed));
    report.add("failed_scan_on", static_cast<double>(on.failed));
    report.add("retries_scan_off", static_cast<double>(off.retries));
    report.add("retries_scan_on", static_cast<double>(on.retries));
    if (!std::isnan(backend->tenant_bringup_ms()))
      report.add("tenant_bringup_ms", backend->tenant_bringup_ms());
    if (!std::isnan(backend->tenant_rss_kib()))
      report.add("tenant_rss_kib", backend->tenant_rss_kib());
    if (coverage_ms >= 0.0) {
      report.add("coverage_period_ms", coverage_ms);
      report.add("scan_bytes_per_sec", scan_bps);
    }
    if (o.attacking()) {
      report.add("p50_attack", attack.latency.quantile(0.50));
      report.add("p99_attack", attack.latency.quantile(0.99));
      report.add("failed_attack", static_cast<double>(attack.failed));
      report.add("retries_attack", static_cast<double>(attack.retries));
      if (ttd_ns >= 0) report.add("time_to_detect", static_cast<double>(ttd_ns));
    }
    const std::string path = report.write();
    if (!path.empty()) std::printf("  wrote %s\n", path.c_str());

    if (o.attacking() && ttd_ns < 0) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
