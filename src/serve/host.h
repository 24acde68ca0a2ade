// ModelHost: the multi-tenant protection-as-a-service core.
//
// Each tenant is a signed deployment package loaded into its own
// QuantizedModel + IntegrityScheme (golden copy zero-copy via the v3+
// mmap path when available) with the int8 inference engine built from the
// package's signed, calibrated op program (v4; older packages are refused
// with a re-sign hint). A pool of worker threads drains one bounded MPMC request
// queue — requests carry the tenant id, so a burst on one tenant borrows
// every idle worker — while a single background scanner thread runs
// budget-bounded scan slices across all tenants (most-overdue-first by
// coverage age, round-robin otherwise), epoch-validating every scan
// against the arena's seqlock guard (see core/scan_scheduler.h).
//
// Writers never stop traffic: fault injection (the test/loadgen hook for
// "rowhammer while serving") and reload-clean recovery both bracket
// their mutations in EpochGuard::WriterSection, which invalidates only
// the overlapping optimistic scans. When the scanner flags groups it
// recovers them immediately under a writer section and records
// detection latency relative to the last injection — the
// time-to-detect-under-traffic metric the load generator reports.
//
// Thread-safety contract: add_tenant() before start(); infer()/
// try_infer_async() from any number of threads while running;
// inject_faults(), set_scanning() and stats() from any thread. One
// engine per tenant is shared by all workers — its op program is
// immutable and all working memory is per-worker
// scratch, so concurrent forward_into calls are independent. Engine
// weight reads race recovery writes by design (that *is* run-time
// attack visibility); integrity verdicts are protected by the epoch
// protocol, inference outputs during an active attack are garbage by
// definition until recovery lands.
//
// A stored per-tenant stat is declared in one place: RADAR_TENANT_STATS.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scan_scheduler.h"
#include "exp/workspace.h"
#include "quant/weight_arena.h"
#include "serve/golden_guard.h"
#include "serve/latency_histogram.h"
#include "serve/request_queue.h"

namespace radar::serve {

struct TenantConfig {
  std::string name;          ///< routing key (unique per host)
  std::string package_path;  ///< signed deployment package (v4)
  std::string model_id = "tiny";  ///< reference model structure
  bool mmap_golden = true;   ///< zero-copy golden clean copy
};

struct ServeOptions {
  std::size_t workers = 2;            ///< inference worker threads
  std::size_t queue_capacity = 4096;  ///< bounded request queue depth
  bool scan = true;                   ///< start with scanning enabled
  std::int64_t scan_shard_bytes = 16 * 1024;  ///< sweep granule per tenant
  // Scan QoS: each scanner-thread turn runs one budget-bounded slice of
  // one tenant's sweep (dirty groups first, then round-robin chunks).
  // Negative = unlimited, zero = starved (coverage-age alarms fire);
  // see core/scan_scheduler.h for the exact semantics.
  std::int64_t scan_budget_us = 500;     ///< wall-time budget per slice
  std::int64_t scan_budget_bytes = -1;   ///< weight-byte budget per slice
  /// Coverage guarantee: a tenant whose last completed sweep is older
  /// than this is scanned first (preempting round-robin) and counts a
  /// coverage alarm in STATS. 0 = no deadline.
  std::int64_t coverage_period_ms = 5000;
  /// Pacing between slices: the scanner sleeps out the remainder of this
  /// interval after each slice (skipped while a tenant is overdue), so
  /// the default duty cycle is budget/interval, not 100% of a core.
  std::int64_t scan_interval_us = 2000;
  std::int64_t epoch_shard_bytes = quant::kDefaultEpochShardBytes;
  int epoch_max_retries = 64;  ///< optimistic attempts before quiescing
  core::RecoveryPolicy recovery = core::RecoveryPolicy::kReloadClean;
  // Graceful degradation: a tenant accumulating `quarantine_threshold`
  // detections inside `quarantine_window_ms` is quarantined — its
  // requests are shed with a distinct error while the scanner re-verifies
  // the full arena against the golden copy — then readmitted after a
  // backoff that doubles on each consecutive quarantine (capped) and
  // decays back once the tenant stays clean for a full window.
  int quarantine_threshold = 3;  ///< detections to trip (0: never)
  std::int64_t quarantine_window_ms = 2000;
  std::int64_t quarantine_backoff_ms = 250;  ///< first readmit delay
  std::int64_t quarantine_backoff_max_ms = 8000;
  // Deadline propagation: requests older than their deadline are dropped
  // by the workers with a distinct error instead of burning compute on
  // an answer nobody is waiting for. 0 = requests without an explicit
  // deadline never expire.
  std::int64_t default_deadline_ms = 0;
  /// RETRY-AFTER hint (ms) returned with queue-full sheds.
  std::int64_t shed_retry_ms = 20;
  // Watchdog: a supervisor thread consuming heartbeats from the scanner
  // and the worker pool. A scanner silent for `scanner_stall_ms` is torn
  // down (via the cooperative abort flag; chaos stalls poll it) and
  // restarted; a worker stuck in one request for `worker_stall_ms` has
  // that request failed out from under it and is flagged in STATS.
  bool watchdog = true;
  std::int64_t watchdog_interval_ms = 50;
  std::int64_t scanner_stall_ms = 1000;
  std::int64_t worker_stall_ms = 2000;
  // Degraded-golden fallback: per-range CRC sidecar granularity over the
  // mmap'd golden copy, and the re-open backoff once it fails
  // verification (doubles per failed heal attempt, capped).
  std::int64_t golden_range_bytes = 64 * 1024;
  std::int64_t reopen_backoff_ms = 100;
  std::int64_t reopen_backoff_max_ms = 5000;
};

struct InferenceResult {
  bool ok = false;
  int predicted = -1;           ///< argmax class of the first sample
  std::int64_t latency_ns = 0;  ///< submit -> completion (queue included)
  std::string error;            ///< set when !ok
  /// Client hint: retry after this many ms (shed / quarantined replies);
  /// -1 when retrying is pointless or the request succeeded.
  std::int64_t retry_after_ms = -1;
};

/// Every per-tenant value the host stores in an atomic, declared once as
/// X(type, name, initial). The list expands into the TenantStats fields,
/// the Tenant atomics, the loads in ModelHost::stats() and the keys of
/// HostStats::to_json(), so a new stat is one line here plus the sites
/// that update it. stats() loads in list order with acquire: scan_step
/// publishes `detections` last, with release, so it must stay listed
/// before `groups_recovered` and `last_ttd_ns`.
#define RADAR_TENANT_STATS(X)                                               \
  X(std::uint64_t, requests, 0)                                             \
  X(std::uint64_t, errors, 0)                                               \
  X(std::uint64_t, shards_scanned, 0)                                       \
  X(std::uint64_t, sweeps, 0)                                               \
  X(std::int64_t, coverage_period_ms, -1) /* last sweep (-1: none) */       \
  X(std::uint64_t, coverage_alarms, 0)    /* coverage deadline misses */    \
  X(std::uint64_t, scan_cursor, 0)        /* survives scanner respawns */   \
  X(std::uint64_t, dirty_pending, 0)      /* queued priority rescans */     \
  X(std::uint64_t, epoch_retries, 0)                                        \
  X(std::uint64_t, epoch_fallbacks, 0)                                      \
  X(std::uint64_t, detections, 0)         /* flagged-slice events */        \
  X(std::uint64_t, groups_recovered, 0)   /* repaired by the scanner */     \
  X(std::uint64_t, faults_injected, 0)                                      \
  X(std::int64_t, last_ttd_ns, -1)        /* inject -> detect (-1: none) */ \
  X(bool, quarantined, false)             /* shedding requests now */       \
  X(std::uint64_t, quarantines, 0)                                          \
  X(std::uint64_t, readmits, 0)                                             \
  X(std::uint64_t, shed_quarantined, 0)   /* requests shed meanwhile */     \
  X(std::uint64_t, bytes_scrubbed, 0)     /* golden scrub rewrites */       \
  X(std::uint64_t, deadline_expired, 0)   /* dropped past deadline */       \
  X(std::uint64_t, recover_failures, 0)   /* recoveries that threw */       \
  X(bool, degraded, false)                /* recovering from snapshot */    \
  X(std::uint64_t, degrades, 0)           /* golden mapping demotions */    \
  X(std::uint64_t, heals, 0)              /* re-opens that restored it */

/// Point-in-time view of one tenant (see ModelHost::stats).
struct TenantStats {
  std::string name;
  bool golden_mmapped = false;
  LatencyHistogram::Snapshot latency;
  std::int64_t coverage_age_ms = 0;     ///< time since last completed sweep
  std::int64_t scan_bytes_per_sec = 0;  ///< bytes swept / scan-active time
  std::uint64_t writer_sections = 0;
#define X(type, field, init) type field = init;
  RADAR_TENANT_STATS(X)
#undef X
};

struct HostStats {
  std::vector<TenantStats> tenants;
  std::uint64_t queue_rejected = 0;  ///< open-loop pushes shed at the queue
  std::uint64_t queue_timeouts = 0;  ///< deadline pushes that gave up
  bool scanning = false;
  std::uint64_t scanner_restarts = 0;  ///< watchdog scanner restarts
  std::uint64_t scanner_crashes = 0;   ///< scanner thread deaths caught
  std::uint64_t worker_flags = 0;      ///< requests failed by the watchdog
  std::uint64_t workers_wedged = 0;    ///< workers currently flagged wedged
  std::uint64_t total_detections() const {
    std::uint64_t n = 0;
    for (const auto& t : tenants) n += t.detections;
    return n;
  }
  /// One-line JSON (daemon STATS reply / loadgen artifact).
  std::string to_json() const;
};

class ModelHost {
 public:
  explicit ModelHost(ServeOptions opts = {});
  ~ModelHost();

  ModelHost(const ModelHost&) = delete;
  ModelHost& operator=(const ModelHost&) = delete;

  /// Load and verify one tenant and build its engine from the package's
  /// signed program (before start()). Renders no dataset image and runs
  /// no calibration. Throws on a package that fails verification — a
  /// tampered artifact must not enter service — and on a v2/v3 package,
  /// which carries no engine (re-sign it). Returns the tenant index.
  std::size_t add_tenant(const TenantConfig& cfg);

  std::size_t num_tenants() const { return tenants_.size(); }
  const std::string& tenant_name(std::size_t t) const;
  /// Index of a tenant by name, or npos when unknown.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find_tenant(const std::string& name) const;
  /// The tenant's dataset (request inputs for harnesses and the daemon).
  const data::SyntheticDataset& dataset(std::size_t t) const;
  /// The tenant's serving engine (offline checks of what it computes).
  const qnn::InferenceEngine& engine(std::size_t t) const;

  void start();
  void stop();
  bool running() const { return running_; }

  /// Synchronous inference: enqueue and wait. `input` is NCHW (any batch
  /// size; `predicted` reports sample 0). `deadline_ms` bounds the whole
  /// request (0: ServeOptions::default_deadline_ms; that too 0: no
  /// deadline — blocks for queue capacity). With a deadline the enqueue
  /// waits at most the remaining budget and workers drop the request
  /// once it expires.
  InferenceResult infer(std::size_t tenant, const nn::Tensor& input,
                        std::int64_t deadline_ms = 0);

  /// Open-loop submission: never blocks; false when the queue is full
  /// (the request is shed and counted). `input` must stay alive until
  /// the future resolves. `deadline_ms` as in infer().
  bool try_infer_async(std::size_t tenant, const nn::Tensor& input,
                       std::future<InferenceResult>& out,
                       std::int64_t deadline_ms = 0);

  void set_scanning(bool on) { scanning_ = on; }
  bool scanning() const { return scanning_; }

  /// Flip `flips` random weight MSBs of one tenant under a writer
  /// section — the live-traffic fault injector. Records the injection
  /// time so the scanner can report time-to-detect. Returns flips made.
  std::size_t inject_faults(std::size_t tenant, int flips,
                            std::uint64_t seed);

  /// Rowhammer-burst injector: hammer `rows` victim DRAM rows of the
  /// tenant's arena (spatially correlated flips, see attack/rowhammer.h)
  /// under a writer section. Returns the weight flips that landed.
  std::size_t inject_rowhammer(std::size_t tenant, int rows,
                               std::int64_t activations, bool double_sided,
                               std::uint64_t seed);

  HostStats stats() const;
  /// Zero the latency histograms and request counters (phase boundaries
  /// in the load generator); scan/detection counters are preserved.
  void reset_latency_stats();

 private:
  struct Request {
    std::size_t tenant = 0;
    const nn::Tensor* input = nullptr;
    std::chrono::steady_clock::time_point t_submit;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    std::promise<InferenceResult> promise;
  };

  struct Tenant {
    TenantConfig cfg;
    exp::ModelBundle bundle;
    std::unique_ptr<core::IntegrityScheme> scheme;
    std::unique_ptr<qnn::InferenceEngine> engine;
    bool golden_mmapped = false;

    // Scanner-thread state. The scheduler lives with the tenant, not the
    // scanner thread, so a watchdog respawn resumes the sweep exactly
    // where the stalled thread left it (cursor, dirty queue and all).
    core::ScanScheduler scheduler;
    core::DetectionReport recover_report;
    bool coverage_alarm_armed = false;  ///< one alarm per missed period

    // Quarantine bookkeeping. The `quarantined` stat gates the workers
    // (which also read `readmit_at_ns` for the RETRY-AFTER hint); the
    // rest is scanner-thread private (window of recent detection
    // timestamps and the current backoff).
    std::vector<std::int64_t> detect_window_ns;
    std::atomic<std::int64_t> readmit_at_ns{0};
    std::int64_t backoff_ms = 0;
    std::int64_t last_readmit_ns = -1;

    // Degraded-golden fallback. The guard snapshots per-range CRCs of
    // the verified mmap'd golden at load; `fallback_snapshot` is the
    // in-memory clean copy recovery switches to when the mapping fails
    // verification. `reopen_*` (scanner-thread private) pace the heal
    // attempts; the `degraded` stat says which source is live.
    GoldenGuard golden_guard;
    std::shared_ptr<quant::ArenaSnapshot> fallback_snapshot;
    std::int64_t reopen_at_ns = 0;
    std::int64_t reopen_backoff_ms = 0;

    // Cross-thread stats: one atomic per RADAR_TENANT_STATS entry.
#define X(type, field, init) std::atomic<type> field{init};
    RADAR_TENANT_STATS(X)
#undef X
    std::atomic<std::int64_t> pending_inject_ns{-1};  ///< steady ns
    // Inputs of scan_bytes_per_sec and coverage_age_ms (computed on read).
    std::atomic<std::int64_t> scan_bytes{0}, scan_ns{0};
    std::atomic<std::int64_t> sweep_end_ns{-1};  ///< last wrap (steady ns)
  };

  struct Worker {
    /// Histograms are built in place (atomics are immovable).
    explicit Worker(std::size_t tenants) : hist(tenants) {}
    std::thread thread;
    qnn::QnnScratch scratch;
    nn::Tensor logits;
    /// One histogram per tenant; merged by stats().
    std::vector<LatencyHistogram> hist;

    /// The in-flight request, stealable by the watchdog: the worker
    /// parks the promise here before forward() and reclaims it after —
    /// unless the watchdog already failed it (serial mismatch / !active),
    /// in which case the late result is dropped. `busy_since_ns` is the
    /// heartbeat (-1 while idle).
    struct InFlight {
      std::mutex mu;
      bool active = false;
      std::uint64_t serial = 0;
      std::size_t tenant = 0;
      std::promise<InferenceResult> promise;
    };
    InFlight inflight;
    std::atomic<std::int64_t> busy_since_ns{-1};
    std::atomic<bool> wedged{false};
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// A request for `tenant` stamped now, its deadline resolved as in
  /// infer(); throws unless the host is running and the tenant exists.
  Request make_request(std::size_t tenant, const nn::Tensor& input,
                       std::int64_t deadline_ms) const;
  void worker_loop(std::size_t wi);
  void scanner_loop();
  void watchdog_loop();
  /// Run one budget-bounded scan slice of one tenant; recover + account
  /// on detection. Returns the slice outcome (for pacing).
  core::ScanScheduler::Slice scan_step(Tenant& t);
  /// Scanner thread: raise the tenant's coverage alarm when its sweep
  /// age exceeds the coverage period. Checked for EVERY tenant on every
  /// scanner iteration — the overdue-first pick must not starve the
  /// alarms of the tenants it passes over.
  void check_coverage(Tenant& t);
  /// Scanner thread: verify the mmap'd golden bytes for [b0,b1) before
  /// recovery trusts them; on mismatch degrade to the snapshot fallback.
  void ensure_golden(Tenant& t, std::int64_t b0, std::int64_t b1);
  void degrade_tenant(Tenant& t);
  /// Scanner thread: re-open + re-verify the package of a degraded
  /// tenant once its backoff expires; restore the mapping on success.
  void maybe_heal(Tenant& t);
  /// Scanner thread: push a detection into the tenant's window and trip
  /// (or extend) the quarantine when it fills.
  void note_detection(Tenant& t);
  /// Scanner thread: quarantine `t` — full-arena re-verify + repair
  /// against the golden copy, then arm the readmission backoff.
  void quarantine_tenant(Tenant& t);
  /// Scanner thread: readmit a quarantined tenant whose backoff expired;
  /// decay the backoff of tenants that stayed clean for a full window.
  void maybe_readmit(Tenant& t);

  ServeOptions opts_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::unique_ptr<BoundedQueue<Request>> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Guards scanner_thread_ itself: the watchdog joins + respawns it
  /// while stop() may be tearing it down.
  std::mutex scanner_mu_;
  std::thread scanner_thread_;
  std::atomic<bool> scanning_{true};
  std::atomic<bool> stop_scanner_{false};
  /// Cooperative teardown flag the watchdog raises before joining a
  /// stalled scanner; chaos stalls poll it so joins stay bounded.
  std::atomic<bool> scanner_abort_{false};
  std::atomic<std::int64_t> scanner_heartbeat_ns_{-1};
  std::atomic<std::uint64_t> scanner_restarts_{0};
  std::atomic<std::uint64_t> scanner_crashes_{0};
  std::atomic<std::uint64_t> worker_flags_{0};
  std::thread watchdog_thread_;
  std::atomic<bool> stop_watchdog_{false};
  bool running_ = false;
};

}  // namespace radar::serve
