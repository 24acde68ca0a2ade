#include "serve/host.h"

#include <algorithm>
#include <sstream>

#include "attack/rowhammer.h"
#include "common/fault_points.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sigbus_guard.h"
#include "core/package.h"
#include "data/model_recipe.h"
#include "quant/epoch_guard.h"

namespace radar::serve {

namespace {
constexpr auto kScannerIdle = std::chrono::microseconds(200);

/// Cooperative chaos stall: sleeps `ms` in small slices, bailing as soon
/// as `abort()` turns true — the wedge is real enough for a watchdog to
/// see, but teardown joins stay bounded.
template <typename AbortFn>
void chaos_stall_ms(std::int64_t ms, AbortFn&& abort) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto dur = std::chrono::milliseconds(ms);
  while (!abort() && std::chrono::steady_clock::now() - t0 < dur)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
}  // namespace

ModelHost::ModelHost(ServeOptions opts) : opts_(opts) {
  RADAR_REQUIRE(opts_.workers > 0, "serve host needs at least one worker");
  scanning_ = opts_.scan;
  // $RADAR_CHAOS arming happens at host construction so every entry
  // point (daemon, tests, in-process loadgen) sees the same points.
  chaos::FaultRegistry::instance().arm_from_env();
}

ModelHost::~ModelHost() { stop(); }

std::size_t ModelHost::add_tenant(const TenantConfig& cfg) {
  RADAR_REQUIRE(!running_, "add_tenant while serving");
  RADAR_REQUIRE(is_plain_name(cfg.name),
                "tenant name must match [A-Za-z0-9._-]+: " + cfg.name);
  RADAR_REQUIRE(find_tenant(cfg.name) == npos,
                "duplicate tenant name: " + cfg.name);

  const data::ModelRecipe recipe = data::model_recipe(cfg.model_id);

  auto t = std::make_unique<Tenant>();
  t->cfg = cfg;
  // The package is the whole model: its arena table gives the geometry,
  // its blob the weights, its engine section the served program.
  core::PackageLoadOptions load_opts;
  load_opts.threads = 1;
  load_opts.mmap_golden = cfg.mmap_golden;
  core::PackageLoadReport report = core::load_package(
      cfg.package_path, t->qmodel, t->scheme, load_opts);
  RADAR_REQUIRE(report.verified(),
                "tenant '" + cfg.name + "': package " + cfg.package_path +
                    " failed verification — refusing to serve it");
  RADAR_REQUIRE(report.info.format_version >= core::kPackageFormatV4,
                "tenant '" + cfg.name + "': package " + cfg.package_path +
                    " is format v" +
                    std::to_string(report.info.format_version) +
                    " and carries no signed engine; re-sign it with "
                    "`radar_cli sign`");
  const qnn::EngineProgram& program = report.info.engine;
  RADAR_REQUIRE(program.in_channels == recipe.data_spec.channels &&
                    program.num_classes == recipe.data_spec.num_classes,
                "tenant '" + cfg.name + "': inputs of model '" +
                    cfg.model_id + "' (" +
                    std::to_string(recipe.data_spec.channels) +
                    " channels, " +
                    std::to_string(recipe.data_spec.num_classes) +
                    " classes) do not fit the signed engine of " +
                    cfg.package_path + " (" +
                    std::to_string(program.in_channels) + " channels, " +
                    std::to_string(program.num_classes) + " classes)");
  t->dataset = std::make_unique<const data::SyntheticDataset>(
      recipe.data_spec, recipe.n_train, recipe.n_test);
  t->golden_mmapped = report.golden_mmapped;

  // Per-shard seqlock epochs: from here on every arena mutation must go
  // through a WriterSection (inject_faults and scanner recovery do).
  t->qmodel->enable_epoch_guard(opts_.epoch_shard_bytes);

  // One engine per tenant, built from the package's signed program and
  // shared across workers: the program is immutable and all working
  // memory comes from per-worker scratch. No engine-internal pool —
  // parallelism comes from concurrent requests, keeping per-request
  // latency flat under load.
  t->engine = std::make_unique<qnn::InferenceEngine>(
      *t->qmodel, std::move(report.info.engine),
      qnn::EngineKind::kBatched, nullptr);

  core::ScanScheduler::Config scfg;
  scfg.budget_us = opts_.scan_budget_us;
  scfg.budget_bytes = opts_.scan_budget_bytes;
  scfg.chunk_bytes = opts_.scan_shard_bytes;
  scfg.max_retries = opts_.epoch_max_retries;
  t->scheduler.plan(*t->scheme, scfg);
  // Coverage age is measured from load until the first sweep completes.
  t->sweep_end_ns.store(now_ns(), std::memory_order_relaxed);

  // Degraded-golden machinery (mmap path only: the owned clean copy is
  // process-private and cannot rot under us). The sidecar CRCs the
  // *verified* golden bytes; the snapshot is the clean fallback recovery
  // switches to when a later read of the mapping disagrees.
  if (t->golden_mmapped) {
    t->golden_guard.build(t->scheme->clean_arena_bytes(),
                          opts_.golden_range_bytes);
    t->fallback_snapshot = std::make_shared<quant::ArenaSnapshot>(
        t->qmodel->snapshot());
  }

  RADAR_LOG(kInfo) << "serve: tenant '" << cfg.name << "' ready — "
                   << t->qmodel->total_weights() << " weights, "
                   << t->scheme->id() << " scheme, "
                   << t->scheduler.num_chunks() << " scan chunks, golden "
                   << (t->golden_mmapped ? "mmap" : "owned");

  tenants_.push_back(std::move(t));
  return tenants_.size() - 1;
}

const std::string& ModelHost::tenant_name(std::size_t t) const {
  return tenants_.at(t)->cfg.name;
}

std::size_t ModelHost::find_tenant(const std::string& name) const {
  for (std::size_t i = 0; i < tenants_.size(); ++i)
    if (tenants_[i]->cfg.name == name) return i;
  return npos;
}

const data::SyntheticDataset& ModelHost::dataset(std::size_t t) const {
  return *tenants_.at(t)->dataset;
}

const qnn::InferenceEngine& ModelHost::engine(std::size_t t) const {
  return *tenants_.at(t)->engine;
}

void ModelHost::start() {
  RADAR_REQUIRE(!running_, "serve host already running");
  RADAR_REQUIRE(!tenants_.empty(), "serve host has no tenants");
  queue_ = std::make_unique<BoundedQueue<Request>>(opts_.queue_capacity);
  stop_scanner_ = false;
  scanner_abort_ = false;
  stop_watchdog_ = false;
  scanner_heartbeat_ns_ = now_ns();
  workers_.clear();
  for (std::size_t wi = 0; wi < opts_.workers; ++wi)
    workers_.push_back(std::make_unique<Worker>(tenants_.size()));
  running_ = true;
  for (std::size_t wi = 0; wi < opts_.workers; ++wi)
    workers_[wi]->thread = std::thread([this, wi] { worker_loop(wi); });
  {
    std::lock_guard<std::mutex> lock(scanner_mu_);
    scanner_thread_ = std::thread([this] { scanner_loop(); });
  }
  if (opts_.watchdog)
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  RADAR_LOG(kInfo) << "serve: started — " << tenants_.size()
                   << " tenant(s), " << opts_.workers
                   << " worker(s), scanning "
                   << (scanning_ ? "on" : "off") << ", watchdog "
                   << (opts_.watchdog ? "on" : "off");
}

void ModelHost::stop() {
  if (!running_) return;
  queue_->close();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  // Watchdog before scanner: once it is gone nobody else touches
  // scanner_thread_, so the final join below cannot race a restart.
  stop_watchdog_ = true;
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  stop_scanner_ = true;
  scanner_abort_ = true;  // bail out of any chaos stall immediately
  {
    std::lock_guard<std::mutex> lock(scanner_mu_);
    if (scanner_thread_.joinable()) scanner_thread_.join();
  }
  running_ = false;
  RADAR_LOG(kInfo) << "serve: stopped";
}

ModelHost::Request ModelHost::make_request(std::size_t tenant,
                                           const nn::Tensor& input,
                                           std::int64_t deadline_ms) const {
  RADAR_REQUIRE(running_, "infer on a stopped host");
  RADAR_REQUIRE(tenant < tenants_.size(), "unknown tenant index");
  if (deadline_ms <= 0) deadline_ms = opts_.default_deadline_ms;
  Request req;
  req.tenant = tenant;
  req.input = &input;
  req.t_submit = std::chrono::steady_clock::now();
  if (deadline_ms > 0) {
    req.deadline = req.t_submit + std::chrono::milliseconds(deadline_ms);
    req.has_deadline = true;
  }
  return req;
}

InferenceResult ModelHost::infer(std::size_t tenant, const nn::Tensor& input,
                                 std::int64_t deadline_ms) {
  Request req = make_request(tenant, input, deadline_ms);
  // A producer-side wedge (slow disk on the request path, a debugger,
  // scheduler trouble) — the deadline bounds its blast radius.
  if (chaos::fire(chaos::points::kQueueStall))
    chaos_stall_ms(chaos::param(chaos::points::kQueueStall, 50),
                   [this] { return queue_->closed(); });
  std::future<InferenceResult> fut = req.promise.get_future();
  const bool has_deadline = req.has_deadline;
  const auto deadline = req.deadline;
  const bool pushed =
      has_deadline
          ? queue_->try_push_for(std::move(req),
                                 deadline - std::chrono::steady_clock::now())
          : queue_->push(std::move(req));
  if (!pushed) {
    InferenceResult r;
    if (queue_->closed()) {
      r.error = "queue closed";
    } else {
      r.error = "queue full (deadline)";
      r.retry_after_ms = opts_.shed_retry_ms;
    }
    return r;
  }
  return fut.get();
}

bool ModelHost::try_infer_async(std::size_t tenant, const nn::Tensor& input,
                                std::future<InferenceResult>& out,
                                std::int64_t deadline_ms) {
  Request req = make_request(tenant, input, deadline_ms);
  out = req.promise.get_future();
  return queue_->try_push(std::move(req));
}

void ModelHost::worker_loop(std::size_t wi) {
  Worker& w = *workers_[wi];
  Request req;
  while (queue_->pop(req)) {
    Tenant& t = *tenants_[req.tenant];
    // Park the promise where the watchdog can steal it, then raise the
    // busy heartbeat. Serial numbers disambiguate: a slow request the
    // watchdog already failed must not complete a later one's promise.
    std::uint64_t serial = 0;
    {
      std::lock_guard<std::mutex> lock(w.inflight.mu);
      serial = ++w.inflight.serial;
      w.inflight.tenant = req.tenant;
      w.inflight.promise = std::move(req.promise);
      w.inflight.active = true;
    }
    w.busy_since_ns.store(now_ns(), std::memory_order_release);

    InferenceResult r;
    if (req.has_deadline && std::chrono::steady_clock::now() > req.deadline) {
      // Expired in the queue: fail fast instead of burning a forward
      // pass on an answer the client already gave up on. Distinct error
      // and counter (not `errors` — the model did nothing wrong).
      r.error = "deadline exceeded";
      t.deadline_expired.fetch_add(1, std::memory_order_relaxed);
    } else if (t.quarantined.load(std::memory_order_acquire)) {
      // Shed with a distinct error (not counted under `errors`): the
      // tenant is being re-verified; its traffic must not poison replies
      // or hold a worker while other tenants' requests wait.
      r.error = "tenant quarantined";
      const std::int64_t rem_ms =
          (t.readmit_at_ns.load(std::memory_order_relaxed) - now_ns()) /
          1000000;
      r.retry_after_ms = std::max(rem_ms, opts_.shed_retry_ms);
      t.shed_quarantined.fetch_add(1, std::memory_order_relaxed);
    } else {
      try {
        if (chaos::fire(chaos::points::kWorkerException))
          throw Error("chaos: injected worker exception");
        if (chaos::fire(chaos::points::kWorkerStall))
          chaos_stall_ms(chaos::param(chaos::points::kWorkerStall,
                                      3 * opts_.worker_stall_ms),
                         [this] { return queue_->closed(); });
        if (chaos::fire(chaos::points::kInferSlow))
          std::this_thread::sleep_for(std::chrono::milliseconds(
              chaos::param(chaos::points::kInferSlow, 50)));
        t.engine->forward_into(*req.input, w.scratch, w.logits);
        const std::int64_t classes = t.engine->num_classes();
        const float* row = w.logits.data();
        int best = 0;
        for (std::int64_t c = 1; c < classes; ++c)
          if (row[c] > row[best]) best = static_cast<int>(c);
        r.predicted = best;
        r.ok = true;
      } catch (const std::exception& e) {
        r.error = e.what();
        t.errors.fetch_add(1, std::memory_order_relaxed);
      }
    }

    w.busy_since_ns.store(-1, std::memory_order_release);
    // Reclaim the parked promise — unless the watchdog already failed
    // this request, in which case the late result is dropped (the
    // client got "worker wedged" long ago).
    std::promise<InferenceResult> promise;
    bool owned = false;
    {
      std::lock_guard<std::mutex> lock(w.inflight.mu);
      if (w.inflight.active && w.inflight.serial == serial) {
        promise = std::move(w.inflight.promise);
        w.inflight.active = false;
        owned = true;
      }
    }
    w.wedged.store(false, std::memory_order_relaxed);
    if (!owned) continue;
    r.latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - req.t_submit)
                       .count();
    w.hist[req.tenant].record(r.latency_ns);
    t.requests.fetch_add(1, std::memory_order_relaxed);
    promise.set_value(std::move(r));
  }
}

void ModelHost::watchdog_loop() {
  // Watchdog-private: the serial each worker was last flagged at, so a
  // wedged request is failed exactly once.
  std::vector<std::uint64_t> flagged(workers_.size(), 0);
  const auto interval = std::chrono::milliseconds(opts_.watchdog_interval_ms);
  while (!stop_watchdog_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(interval);
    if (stop_watchdog_.load(std::memory_order_relaxed)) break;
    const std::int64_t now = now_ns();

    // Scanner heartbeat: stale means stalled (chaos, scheduler, a bug)
    // or dead (crash — the loop's catch already logged it). Either way
    // tear it down via the cooperative abort flag and respawn. Sweep
    // position is preserved: each tenant's ScanScheduler (cursor, dirty
    // queue, sweep accumulation) lives in the Tenant, not the thread.
    const std::int64_t hb =
        scanner_heartbeat_ns_.load(std::memory_order_acquire);
    if (hb >= 0 && now - hb > opts_.scanner_stall_ms * 1000000) {
      scanner_abort_.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(scanner_mu_);
        if (scanner_thread_.joinable()) scanner_thread_.join();
        scanner_abort_.store(false, std::memory_order_release);
        scanner_heartbeat_ns_.store(now_ns(), std::memory_order_release);
        scanner_thread_ = std::thread([this] { scanner_loop(); });
      }
      scanner_restarts_.fetch_add(1, std::memory_order_relaxed);
      RADAR_LOG(kWarn)
          << "serve: watchdog restarted stalled scanner (heartbeat "
          << (now - hb) / 1000000 << "ms stale)";
      continue;
    }

    // Worker heartbeats: one request holding a worker past the stall
    // bound gets failed out from under it — the client unblocks, the
    // worker is flagged wedged until it completes something again.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      const std::int64_t busy =
          w.busy_since_ns.load(std::memory_order_acquire);
      if (busy < 0 || now - busy <= opts_.worker_stall_ms * 1000000)
        continue;
      std::promise<InferenceResult> promise;
      std::size_t tenant = 0;
      bool stole = false;
      {
        std::lock_guard<std::mutex> lock(w.inflight.mu);
        if (w.inflight.active && w.inflight.serial != flagged[i]) {
          flagged[i] = w.inflight.serial;
          tenant = w.inflight.tenant;
          promise = std::move(w.inflight.promise);
          w.inflight.active = false;
          stole = true;
        }
      }
      if (!stole) continue;
      w.wedged.store(true, std::memory_order_relaxed);
      worker_flags_.fetch_add(1, std::memory_order_relaxed);
      Tenant& t = *tenants_[tenant];
      t.requests.fetch_add(1, std::memory_order_relaxed);
      t.errors.fetch_add(1, std::memory_order_relaxed);
      RADAR_LOG(kError) << "serve: watchdog failed wedged request on worker "
                        << i << " (tenant '" << t.cfg.name << "', busy "
                        << (now - busy) / 1000000 << "ms)";
      InferenceResult r;
      r.error = "worker wedged (watchdog)";
      promise.set_value(std::move(r));
    }
  }
}

core::ScanScheduler::Slice ModelHost::scan_step(Tenant& t) {
  quant::QuantizedModel& qm = *t.qmodel;
  const core::ScanScheduler::Slice slice = t.scheduler.run_slice(qm);

  // Publish the scheduler's private counters for stats().
  constexpr auto kRelaxed = std::memory_order_relaxed;
  t.shards_scanned.store(t.scheduler.chunks_scanned(), kRelaxed);
  t.sweeps.store(t.scheduler.sweeps(), kRelaxed);
  t.epoch_retries.store(t.scheduler.epoch_retries(), kRelaxed);
  t.epoch_fallbacks.store(t.scheduler.epoch_fallbacks(), kRelaxed);
  t.scan_bytes.store(t.scheduler.bytes_scanned(), kRelaxed);
  t.scan_ns.fetch_add(slice.elapsed_ns, kRelaxed);
  t.scan_cursor.store(t.scheduler.cursor(), kRelaxed);
  t.dirty_pending.store(t.scheduler.dirty_pending(), kRelaxed);
  if (slice.wrapped) {
    t.sweep_end_ns.store(now_ns(), kRelaxed);
    t.coverage_period_ms.store(t.scheduler.last_sweep_ns() / 1000000,
                               kRelaxed);
    t.coverage_alarm_armed = false;  // deadline met: re-arm the alarm
  }

  if (!slice.flagged) return slice;

  // Detection: account time-to-detect against the last injection, then
  // repair the flagged groups in place under a writer section — traffic
  // keeps flowing, overlapping optimistic scans simply retry.
  const std::int64_t inject_ns =
      t.pending_inject_ns.exchange(-1, std::memory_order_acq_rel);
  if (inject_ns >= 0)
    t.last_ttd_ns.store(now_ns() - inject_ns, std::memory_order_relaxed);

  // A slice can flag groups across several layers (dirty rescans + sweep
  // chunks); fold them into one per-layer report, deduplicated.
  t.recover_report.flagged.resize(qm.num_layers());
  for (auto& f : t.recover_report.flagged) f.clear();
  for (const auto& [layer, group] : t.scheduler.slice_flags())
    t.recover_report.flagged[layer].push_back(group);
  std::size_t flagged_groups = 0;
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    auto& f = t.recover_report.flagged[li];
    if (f.empty()) continue;
    std::sort(f.begin(), f.end());
    f.erase(std::unique(f.begin(), f.end()), f.end());
    flagged_groups += f.size();
    // Before kReloadClean copies from the mmap'd golden, prove those
    // bytes still match the load-time CRC sidecar — a rotted/torn
    // mapping must degrade to the snapshot fallback, never be installed
    // as "clean".
    if (opts_.recovery == core::RecoveryPolicy::kReloadClean) {
      const auto [b0, b1] = qm.layer_byte_range(li);
      ensure_golden(t, b0, b1);
    }
  }
  bool recovered = false;
  try {
    if (chaos::fire(chaos::points::kRecoveryFail))
      throw Error("chaos: injected recovery failure");
    quant::EpochGuard::WriterSection ws(*qm.epoch_guard(), 0,
                                        qm.arena().size_bytes());
    t.scheme->recover(qm, t.recover_report, opts_.recovery);
    recovered = true;
  } catch (const std::exception& e) {
    // A failed repair is not fatal: the corruption stays flagged, the
    // next sweep re-detects it and retries. Count it so STATS shows the
    // scanner limping before anything worse happens.
    t.recover_failures.fetch_add(1, std::memory_order_relaxed);
    RADAR_LOG(kError) << "serve: tenant '" << t.cfg.name
                      << "' recovery failed (will retry next sweep): "
                      << e.what();
  }
  if (recovered) {
    t.groups_recovered.fetch_add(flagged_groups,
                                 std::memory_order_relaxed);
    // Feed the repair back as priority work: the next slice re-verifies
    // the just-rewritten groups before any sweep chunk, so a recovery
    // that failed to take (or raced another writer) is caught in one
    // slice, not one sweep.
    for (std::size_t li = 0; li < qm.num_layers(); ++li)
      for (const std::int64_t g : t.recover_report.flagged[li])
        t.scheduler.push_dirty(li, g);
    t.dirty_pending.store(t.scheduler.dirty_pending(),
                          std::memory_order_relaxed);
  }
  // Published last: observers polling `detections` can rely on the
  // repair already being accounted in `groups_recovered`/`last_ttd_ns`.
  t.detections.fetch_add(1, std::memory_order_release);
  RADAR_LOG(kInfo) << "serve: tenant '" << t.cfg.name << "' slice flagged "
                   << flagged_groups << " group(s) ("
                   << slice.dirty_groups << " dirty, " << slice.chunks
                   << " chunk(s) swept), "
                   << (recovered ? "recovered" : "recovery FAILED")
                   << (inject_ns >= 0 ? " (ttd recorded)" : "");
  note_detection(t);
  return slice;
}

void ModelHost::check_coverage(Tenant& t) {
  // Coverage guarantee: a sweep older than the period is a QoS violation
  // (starved budget, an overloaded box, a wedged scheme). One alarm per
  // missed period, re-armed by the next completed sweep.
  if (opts_.coverage_period_ms <= 0 || t.coverage_alarm_armed ||
      t.scheduler.coverage_age_ns() <= opts_.coverage_period_ms * 1000000)
    return;
  t.coverage_alarm_armed = true;
  t.coverage_alarms.fetch_add(1, std::memory_order_relaxed);
  RADAR_LOG(kWarn) << "serve: tenant '" << t.cfg.name
                   << "' coverage deadline missed — sweep age "
                   << t.scheduler.coverage_age_ns() / 1000000
                   << "ms exceeds " << opts_.coverage_period_ms
                   << "ms (budget too small for the model?)";
}

void ModelHost::ensure_golden(Tenant& t, std::int64_t b0, std::int64_t b1) {
  if (!t.golden_guard.built() ||
      t.degraded.load(std::memory_order_relaxed))
    return;
  const std::span<const std::int8_t> golden = t.scheme->clean_arena_bytes();
  if (golden.empty()) return;
  if (t.golden_guard.verify_range(golden, b0, b1)) return;
  degrade_tenant(t);
}

void ModelHost::degrade_tenant(Tenant& t) {
  t.degraded.store(true, std::memory_order_release);
  t.degrades.fetch_add(1, std::memory_order_relaxed);
  // Swap recovery's clean source to the in-memory snapshot captured at
  // load. Only the scanner thread reads the clean source (recovery,
  // quarantine scrub), so the swap needs no extra synchronization.
  t.scheme->set_clean_source(t.fallback_snapshot,
                             t.fallback_snapshot->bytes());
  t.reopen_backoff_ms = opts_.reopen_backoff_ms;
  t.reopen_at_ns = now_ns() + t.reopen_backoff_ms * 1000000;
  RADAR_LOG(kError) << "serve: tenant '" << t.cfg.name
                    << "' golden mapping failed CRC verification — "
                    << "degraded to snapshot fallback, package re-open in "
                    << t.reopen_backoff_ms << "ms";
}

void ModelHost::maybe_heal(Tenant& t) {
  if (!t.degraded.load(std::memory_order_relaxed)) return;
  if (now_ns() < t.reopen_at_ns) return;
  core::MappedArena mapped = core::map_package_arena(t.cfg.package_path);
  const bool ok =
      mapped.ok() &&
      mapped.bytes.size() == t.fallback_snapshot->bytes().size() &&
      t.golden_guard.verify_all(mapped.bytes);
  if (ok) {
    t.scheme->set_clean_source(std::move(mapped.holder), mapped.bytes);
    t.degraded.store(false, std::memory_order_release);
    t.heals.fetch_add(1, std::memory_order_relaxed);
    t.reopen_backoff_ms = 0;
    RADAR_LOG(kInfo) << "serve: tenant '" << t.cfg.name
                     << "' golden mapping healed — package re-open "
                     << "verified end-to-end, zero-copy recovery restored";
    return;
  }
  t.reopen_backoff_ms = std::min(t.reopen_backoff_ms * 2,
                                 opts_.reopen_backoff_max_ms);
  t.reopen_at_ns = now_ns() + t.reopen_backoff_ms * 1000000;
  RADAR_LOG(kWarn) << "serve: tenant '" << t.cfg.name
                   << "' package re-open still failing verification, "
                   << "next attempt in " << t.reopen_backoff_ms << "ms";
}

void ModelHost::note_detection(Tenant& t) {
  if (opts_.quarantine_threshold <= 0) return;
  const std::int64_t now = now_ns();
  const std::int64_t window = opts_.quarantine_window_ms * 1000000;
  auto& w = t.detect_window_ns;
  w.push_back(now);
  w.erase(std::remove_if(w.begin(), w.end(),
                         [&](std::int64_t d) { return now - d > window; }),
          w.end());
  // A detection on an already-quarantined tenant means the attack is
  // still landing: re-verify and push the readmission out again.
  const bool trip =
      t.quarantined.load(std::memory_order_relaxed) ||
      static_cast<int>(w.size()) >= opts_.quarantine_threshold;
  if (!trip) return;
  quarantine_tenant(t);
  w.clear();
}

void ModelHost::quarantine_tenant(Tenant& t) {
  const bool was =
      t.quarantined.exchange(true, std::memory_order_acq_rel);
  if (!was) t.quarantines.fetch_add(1, std::memory_order_relaxed);

  // Full-arena re-verify against the golden copy under one writer
  // section: concurrent injections are excluded while we scan + repair,
  // and the post-repair rescan proves the arena is code-clean before a
  // readmission deadline is armed. The scans inside are the scheme's
  // unguarded ones: a guarded sweep would retry against this very writer
  // section and then block in lock_writers.
  quant::QuantizedModel& qm = *t.qmodel;
  std::size_t repaired = 0, scrubbed = 0;
  bool clean = false;
  {
    quant::EpochGuard::WriterSection ws(*qm.epoch_guard(), 0,
                                        qm.arena().size_bytes());
    t.recover_report = t.scheme->scan(qm);
    if (t.recover_report.num_flagged_groups() > 0) {
      repaired =
          static_cast<std::size_t>(t.recover_report.num_flagged_groups());
      t.scheme->recover(qm, t.recover_report, opts_.recovery);
      t.groups_recovered.fetch_add(repaired, std::memory_order_relaxed);
      t.recover_report = t.scheme->scan(qm);
    }
    clean = t.recover_report.num_flagged_groups() == 0;
    // Byte-exact scrub against the golden copy: the scheme's codes only
    // see what they cover (radar2 misses non-MSB flips), but quarantine
    // has the tenant offline anyway — compare every weight byte with the
    // (mmap'd) clean source and rewrite the stragglers. The golden reads
    // touch file-backed pages, so the whole pass runs under the SIGBUS
    // guard: a package truncated after mmap degrades the tenant to its
    // snapshot fallback instead of killing the daemon mid-scrub.
    const std::span<const std::int8_t> golden = t.scheme->clean_arena_bytes();
    if (!golden.empty()) {
      const bool readable = with_sigbus_guard([&] {
        for (std::size_t l = 0; l < qm.num_layers(); ++l) {
          const auto [b0, b1] = qm.layer_byte_range(l);
          for (std::int64_t i = 0; i < b1 - b0; ++i) {
            const std::int8_t want =
                golden[static_cast<std::size_t>(b0 + i)];
            if (qm.get_code(l, i) == want) continue;
            qm.set_code(l, i, want);
            ++scrubbed;
          }
        }
      });
      if (readable) {
        t.bytes_scrubbed.fetch_add(scrubbed, std::memory_order_relaxed);
      } else {
        RADAR_LOG(kError) << "serve: tenant '" << t.cfg.name
                          << "' golden read faulted during scrub "
                          << "(truncated mapping?)";
        if (t.fallback_snapshot &&
            !t.degraded.load(std::memory_order_relaxed))
          degrade_tenant(t);
      }
    }
  }

  // Exponential backoff on consecutive quarantines, capped.
  t.backoff_ms = t.backoff_ms <= 0
                     ? opts_.quarantine_backoff_ms
                     : std::min(t.backoff_ms * 2,
                                opts_.quarantine_backoff_max_ms);
  t.readmit_at_ns = now_ns() + t.backoff_ms * 1000000;
  RADAR_LOG(kWarn) << "serve: tenant '" << t.cfg.name
                   << "' quarantined — full re-verify repaired " << repaired
                   << " group(s), golden scrub rewrote " << scrubbed
                   << " byte(s), codes " << (clean ? "clean" : "STILL DIRTY")
                   << ", readmit in " << t.backoff_ms << "ms";
}

void ModelHost::maybe_readmit(Tenant& t) {
  if (opts_.quarantine_threshold <= 0) return;
  const std::int64_t now = now_ns();
  if (t.quarantined.load(std::memory_order_relaxed)) {
    if (now < t.readmit_at_ns) return;
    t.quarantined.store(false, std::memory_order_release);
    t.readmits.fetch_add(1, std::memory_order_relaxed);
    t.last_readmit_ns = now;
    RADAR_LOG(kInfo) << "serve: tenant '" << t.cfg.name
                     << "' readmitted after " << t.backoff_ms
                     << "ms quarantine backoff";
    return;
  }
  // Backoff decay: a readmitted tenant that stayed detection-free for a
  // full window earns a reset, so a later unrelated incident starts from
  // the base backoff again.
  if (t.backoff_ms > 0 && t.last_readmit_ns >= 0 &&
      now - t.last_readmit_ns > opts_.quarantine_window_ms * 1000000 &&
      (t.detect_window_ns.empty() ||
       now - t.detect_window_ns.back() >
           opts_.quarantine_window_ms * 1000000)) {
    t.backoff_ms = 0;
    t.last_readmit_ns = -1;
  }
}

void ModelHost::scanner_loop() {
  try {
    std::size_t rr = 0;
    while (!stop_scanner_.load(std::memory_order_relaxed) &&
           !scanner_abort_.load(std::memory_order_relaxed)) {
      scanner_heartbeat_ns_.store(now_ns(), std::memory_order_release);
      if (chaos::fire(chaos::points::kScannerStall)) {
        // Wedge without heartbeats: the watchdog must notice and tear
        // us down via scanner_abort_ (which the stall polls, so the
        // join is bounded).
        chaos_stall_ms(chaos::param(chaos::points::kScannerStall, 10000),
                       [this] {
                         return stop_scanner_.load(
                                    std::memory_order_relaxed) ||
                                scanner_abort_.load(
                                    std::memory_order_relaxed);
                       });
        continue;
      }
      if (chaos::fire(chaos::points::kScannerCrash))
        throw Error("chaos: injected scanner crash");
      if (!scanning_.load(std::memory_order_relaxed)) {
        // Readmission + heal deadlines keep ticking while paused.
        for (auto& t : tenants_) {
          maybe_readmit(*t);
          maybe_heal(*t);
        }
        std::this_thread::sleep_for(kScannerIdle);
        continue;
      }
      // Alarms are per-tenant and must not depend on being picked: a
      // monopolizing overdue tenant (or a fleet-wide starved budget)
      // still raises every other tenant's alarm.
      for (auto& tn : tenants_) check_coverage(*tn);
      // Per-tenant coverage deadlines: serve the most-overdue tenant
      // first (largest age/period ratio past 1.0), round-robin when
      // everyone is within deadline. The scheduler state is per-tenant,
      // so preemption costs nothing — the passed-over tenant's sweep
      // resumes exactly where it paused.
      std::size_t pick = rr;
      if (opts_.coverage_period_ms > 0) {
        double worst = 1.0;
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
          const double ratio =
              static_cast<double>(tenants_[i]->scheduler.coverage_age_ns()) /
              (static_cast<double>(opts_.coverage_period_ms) * 1e6);
          if (ratio > worst) {
            worst = ratio;
            pick = i;
          }
        }
      }
      Tenant& t = *tenants_[pick];
      maybe_readmit(t);
      maybe_heal(t);
      const core::ScanScheduler::Slice slice = scan_step(t);
      if (pick == rr) rr = (rr + 1) % tenants_.size();
      // Pacing: sleep out the rest of the slice interval so scanning
      // holds its duty cycle (budget/interval) instead of soaking a
      // core; skipped while any tenant is past its coverage deadline
      // (catch-up beats politeness).
      if (opts_.scan_interval_us > 0 && opts_.scan_budget_us != 0 &&
          opts_.scan_budget_bytes != 0) {
        bool overdue = false;
        if (opts_.coverage_period_ms > 0)
          for (const auto& tn : tenants_)
            overdue = overdue || tn->scheduler.coverage_age_ns() >
                                     opts_.coverage_period_ms * 1000000;
        if (!overdue) {
          const std::int64_t rest =
              opts_.scan_interval_us * 1000 - slice.elapsed_ns;
          if (rest > 0)
            std::this_thread::sleep_for(std::chrono::nanoseconds(rest));
        }
      } else if (opts_.scan_budget_us == 0 ||
                 opts_.scan_budget_bytes == 0) {
        // Starved budget: nothing to do but let coverage age grow (and
        // alarms fire) without spinning.
        std::this_thread::sleep_for(kScannerIdle);
      }
    }
  } catch (const std::exception& e) {
    // The thread dies here; its heartbeat goes stale and the watchdog
    // respawns it. Counted separately from restarts so STATS tells a
    // crash loop apart from a stall.
    scanner_crashes_.fetch_add(1, std::memory_order_relaxed);
    RADAR_LOG(kError) << "serve: scanner thread died: " << e.what();
  }
}

std::size_t ModelHost::inject_faults(std::size_t tenant, int flips,
                                     std::uint64_t seed) {
  RADAR_REQUIRE(tenant < tenants_.size(), "unknown tenant index");
  Tenant& t = *tenants_[tenant];
  quant::QuantizedModel& qm = *t.qmodel;
  if (flips <= 0) return 0;
  Rng rng(seed);
  const auto sites = rng.sample_without_replacement(
      static_cast<std::size_t>(qm.total_weights()),
      static_cast<std::size_t>(
          std::min<std::int64_t>(flips, qm.total_weights())));
  // Stamp the injection time before any byte changes: detection can
  // legitimately fire mid-burst.
  t.pending_inject_ns.store(now_ns(), std::memory_order_release);
  {
    const auto& arena = qm.arena();
    quant::EpochGuard::WriterSection ws(*qm.epoch_guard(), 0,
                                        arena.size_bytes());
    for (const std::size_t flat : sites) {
      const auto [layer, idx] =
          qm.locate(static_cast<std::int64_t>(flat));
      qm.flip_bit(layer, idx, kMsb);
    }
  }
  t.faults_injected.fetch_add(sites.size(), std::memory_order_relaxed);
  RADAR_LOG(kWarn) << "serve: injected " << sites.size()
                   << " MSB flip(s) into tenant '" << t.cfg.name << "'";
  return sites.size();
}

std::size_t ModelHost::inject_rowhammer(std::size_t tenant, int rows,
                                        std::int64_t activations,
                                        bool double_sided,
                                        std::uint64_t seed) {
  RADAR_REQUIRE(tenant < tenants_.size(), "unknown tenant index");
  RADAR_REQUIRE(rows > 0 && activations > 0,
                "rowhammer injection needs rows > 0 and activations > 0");
  Tenant& t = *tenants_[tenant];
  quant::QuantizedModel& qm = *t.qmodel;
  attack::RowhammerConfig rc;
  rc.rows = rows;
  rc.activations = activations;
  rc.double_sided = double_sided;
  Rng rng(seed);
  // Stamp the injection time before any byte changes: detection can
  // legitimately fire mid-burst.
  t.pending_inject_ns.store(now_ns(), std::memory_order_release);
  std::size_t made = 0;
  {
    quant::EpochGuard::WriterSection ws(*qm.epoch_guard(), 0,
                                        qm.arena().size_bytes());
    made = attack::rowhammer_attack(qm, rc, rng).flips.size();
  }
  t.faults_injected.fetch_add(made, std::memory_order_relaxed);
  RADAR_LOG(kWarn) << "serve: rowhammer burst on tenant '" << t.cfg.name
                   << "' — " << rows << " row(s), " << activations
                   << " activation(s)" << (double_sided ? ", double-sided" : "")
                   << ", " << made << " weight flip(s) landed";
  return made;
}

HostStats ModelHost::stats() const {
  HostStats out;
  out.scanning = scanning_.load(std::memory_order_relaxed);
  out.queue_rejected = queue_ ? queue_->rejected() : 0;
  out.queue_timeouts = queue_ ? queue_->timed_out() : 0;
  out.scanner_restarts = scanner_restarts_.load(std::memory_order_relaxed);
  out.scanner_crashes = scanner_crashes_.load(std::memory_order_relaxed);
  out.worker_flags = worker_flags_.load(std::memory_order_relaxed);
  for (const auto& w : workers_)
    if (w->wedged.load(std::memory_order_relaxed)) ++out.workers_wedged;
  for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
    const Tenant& t = *tenants_[ti];
    TenantStats s;
    s.name = t.cfg.name;
    s.golden_mmapped = t.golden_mmapped;
    for (const auto& w : workers_) s.latency.merge(w->hist[ti].snapshot());
    const std::int64_t sweep_end =
        t.sweep_end_ns.load(std::memory_order_relaxed);
    s.coverage_age_ms =
        sweep_end >= 0 ? (now_ns() - sweep_end) / 1000000 : -1;
    const std::int64_t scan_ns = t.scan_ns.load(std::memory_order_relaxed);
    const std::int64_t scan_bytes =
        t.scan_bytes.load(std::memory_order_relaxed);
    s.scan_bytes_per_sec =
        scan_ns > 0 ? scan_bytes * 1000000000 / scan_ns : 0;
    const quant::EpochGuard* g = t.qmodel->epoch_guard();
    s.writer_sections = g ? g->writer_sections() : 0;
    // Acquire, in list order: see RADAR_TENANT_STATS.
#define X(type, field, init) s.field = t.field.load(std::memory_order_acquire);
    RADAR_TENANT_STATS(X)
#undef X
    out.tenants.push_back(std::move(s));
  }
  return out;
}

void ModelHost::reset_latency_stats() {
  for (auto& w : workers_)
    for (auto& h : w->hist) h.reset();
  for (auto& t : tenants_) {
    t->requests.store(0, std::memory_order_relaxed);
    t->errors.store(0, std::memory_order_relaxed);
  }
}

std::string HostStats::to_json() const {
  std::ostringstream os;
  os << std::boolalpha << "{\"scanning\":" << scanning
     << ",\"queue_rejected\":" << queue_rejected
     << ",\"queue_timeouts\":" << queue_timeouts
     << ",\"scanner_restarts\":" << scanner_restarts
     << ",\"scanner_crashes\":" << scanner_crashes
     << ",\"worker_flags\":" << worker_flags
     << ",\"workers_wedged\":" << workers_wedged << ",\"tenants\":[";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantStats& t = tenants[i];
    if (i) os << ",";
    // Names are plain ([A-Za-z0-9._-]+, enforced by add_tenant): no
    // escaping needed.
    os << "{\"name\":\"" << t.name << "\""
       << ",\"golden_mmapped\":" << t.golden_mmapped
       << ",\"p50_ns\":" << t.latency.quantile(0.50)
       << ",\"p99_ns\":" << t.latency.quantile(0.99)
       << ",\"p999_ns\":" << t.latency.quantile(0.999)
       << ",\"max_ns\":" << t.latency.max
       << ",\"coverage_age_ms\":" << t.coverage_age_ms
       << ",\"scan_bytes_per_sec\":" << t.scan_bytes_per_sec
       << ",\"writer_sections\":" << t.writer_sections;
#define X(type, field, init) os << ",\"" #field "\":" << t.field;
    RADAR_TENANT_STATS(X)
#undef X
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace radar::serve
