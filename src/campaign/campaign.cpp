#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <utility>

#include "attack/knowledgeable.h"
#include "attack/pbfa.h"
#include "attack/random_attack.h"
#include "attack/rowhammer.h"
#include "common/env.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/scan_scheduler.h"
#include "core/scheme_registry.h"
#include "exp/workspace.h"

namespace radar::campaign {

namespace {

/// One worker's private model copy. Replicas are bit-identical (same init
/// seed or same cached checkpoint), so any replica may run any unit.
struct Replica {
  exp::ModelBundle bundle;
  quant::ArenaSnapshot clean;  ///< one-memcpy arena copy of the clean state
};

/// A replica built for a worker passes the primary's `dataset`, so the
/// lazily rendered images are rendered once per campaign, not once per
/// replica.
Replica make_replica(const CampaignSpec& spec, const EvalOptions& eval,
                     bool eval_clean = false, bool serial_engine = false,
                     std::shared_ptr<const data::SyntheticDataset> dataset =
                         nullptr) {
  Replica r{exp::make_bundle(spec.model, spec.train, /*eval_clean=*/false),
            {}};
  if (dataset != nullptr) r.bundle.dataset = std::move(dataset);
  r.bundle.eval_batch = eval.batch;
  r.bundle.engine_kind = eval.engine;
  if (spec.eval_subset > 0) {
    // Worker replicas already saturate the cores with trial-level
    // parallelism; routing their forwards (calibration included) through
    // the shared global pool would make every engine sub-step a
    // cross-worker barrier (its wait() drains ALL submitters). Build
    // those engines serial up front, before ensure_engine calibrates.
    if (serial_engine) {
      r.bundle.engine = std::make_unique<qnn::InferenceEngine>(
          *r.bundle.qmodel, eval.engine, /*pool=*/nullptr);
    }
    // Calibrate the int8 engine while the model is clean; trial evals
    // then run the whole eval subset as true batches through it.
    exp::ensure_engine(r.bundle);
    if (eval_clean) {
      r.bundle.clean_accuracy =
          exp::accuracy_on_subset(r.bundle, r.bundle.dataset->test_size());
    }
  }
  r.clean = r.bundle.qmodel->snapshot();
  return r;
}

/// Result slots of one evaluation unit (cell × trial).
struct TrialOutcome {
  std::int64_t flips = 0, detected = 0, flagged = 0;
  bool any_detected = false;
  double acc_recovered = -1.0;
  // ---- ScanMode::kScheduled telemetry (timing-gated in the report) ----
  std::int64_t sched_slices = 0;      ///< run_slice calls to complete a sweep
  std::int64_t sched_ttd_slices = -1;  ///< slices until first flagged slice
  std::int64_t sched_ttd_ns = -1;
  std::int64_t sched_sweep_ns = 0;  ///< measured coverage period
  std::int64_t sched_scan_ns = 0;   ///< wall time inside run_slice
  std::int64_t sched_bytes = 0;
  std::vector<std::int64_t> sched_batch_ns;  ///< interleaved batch latencies
};

/// An attached scheme and the scheduler planned over it.
struct SchemeSlot {
  std::unique_ptr<core::IntegrityScheme> scheme;
  core::ScanScheduler scheduler;
};

/// Per-chunk context of the evaluation phase. In kFull / kScheduled mode
/// the single slot is re-attached and replanned whenever the chunk
/// crosses a cell boundary. In kIncremental mode every scheme column is
/// attached at most once per worker and cached (a scheme's golden codes
/// depend only on its spec and the clean model, so cells sharing a scheme
/// share the attachment), and the reusable DetectionReport keeps the
/// per-trial scan loop allocation-free. The scan pool (scan_threads != 1)
/// is shared by every slot of the context.
struct EvalContext {
  std::size_t cell = static_cast<std::size_t>(-1);
  std::vector<SchemeSlot> slots;
  std::unique_ptr<ThreadPool> pool;
  core::DetectionReport report;  ///< kIncremental scratch, reused
};

/// Fan fn(replica, context, unit) out over `pool` in contiguous chunks
/// (inline on `primary` when pool is null). Each chunk gets a fresh
/// replica (reading the primary's dataset) + context; the first exception
/// is rethrown on the caller.
/// `images` accumulates how many test images each replica actually
/// forwarded through the engine (timing telemetry only).
template <typename Context, typename Fn>
void for_each_unit(std::size_t n, ThreadPool* pool, Replica& primary,
                   const CampaignSpec& spec, const EvalOptions& eval,
                   std::atomic<std::int64_t>& images, Fn&& fn) {
  if (n == 0) return;
  if (pool == nullptr || n == 1) {
    Context ctx;
    const std::int64_t before = primary.bundle.eval_images;
    for (std::size_t u = 0; u < n; ++u) fn(primary, ctx, u);
    images += primary.bundle.eval_images - before;
    return;
  }
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  pool->parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    try {
      Replica replica =
          make_replica(spec, eval, /*eval_clean=*/false,
                       /*serial_engine=*/true, primary.bundle.dataset);
      Context ctx;
      for (std::size_t u = begin; u < end; ++u) fn(replica, ctx, u);
      images += replica.bundle.eval_images;
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
    }
  });
  if (error) std::rethrow_exception(error);
}

std::string sanitize(const std::string& s) {
  std::string out;
  for (const char c : s)
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '-';
  return out;
}

/// Content signature of one profile group (attacker × fault rate): every
/// spec field that shapes the recorded flips, and nothing positional. The
/// profile RNG streams and the disk cache both key off it, so a cached
/// group stays valid when the spec matrix around it is edited — the
/// display label alone would collide for attackers differing only in
/// attack_batch, allowed_bits, or the train flag.
std::string profile_signature(const CampaignSpec& spec, std::size_t ai,
                              std::size_t fi) {
  const AttackerSpec& atk = spec.attackers[ai];
  std::string bits;
  for (const int b : atk.allowed_bits) bits += std::to_string(b);
  char rate[40];
  // Round-trip precision: rates differing in any bit must key apart.
  std::snprintf(rate, sizeof(rate), "%.17g", spec.fault_rates[fi]);
  return sanitize(spec.model) + (spec.train ? "" : "-raw") + "_" +
         sanitize(atk.label()) + "_b" + std::to_string(atk.attack_batch) +
         (bits.empty() ? std::string() : "_bits" + bits) + "_f" +
         sanitize(rate);
}

/// FNV-1a of the signature — the `unit` fed to derive_seed.
std::uint64_t signature_hash(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string profile_cache_path(const CampaignSpec& spec, std::size_t ai,
                               std::size_t fi) {
  return model_cache_dir() + "/campaign_" + sanitize(spec.cache_tag) + "_" +
         profile_signature(spec, ai, fi) + "_T" +
         std::to_string(spec.trials) + "_e" +
         std::to_string(spec.eval_subset) + "_s" +
         std::to_string(spec.seed) + ".bin";
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t phase,
                          std::uint64_t unit) {
  std::uint64_t s = splitmix64(seed ^ 0x5241444152CA3DULL);
  s = splitmix64(s ^ phase);
  return splitmix64(s ^ unit);
}

CampaignRunner::CampaignRunner(std::size_t threads, std::size_t scan_threads,
                               ScanMode mode, EvalOptions eval)
    : threads_(threads == 0
                   ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                   : threads),
      scan_threads_(scan_threads),
      mode_(mode),
      eval_(eval) {}

CampaignReport CampaignRunner::run(const CampaignSpec& spec) const {
  using clock = std::chrono::steady_clock;
  spec.validate();
  if (mode_ == ScanMode::kScheduled)
    RADAR_REQUIRE(eval_.scan_budget_us != 0 && eval_.scan_budget_bytes != 0,
                  "scheduled campaign budget must be nonzero: a zero "
                  "budget starves every slice and the sweep never wraps");

  const auto T = static_cast<std::size_t>(spec.trials);
  const std::size_t A = spec.attackers.size();
  const std::size_t F = spec.fault_rates.size();
  const std::size_t S = spec.schemes.size();
  const std::size_t n_profiles = A * F * T;
  const std::size_t n_units = A * F * S * T;

  // The primary replica is built serially first: it trains (or loads) the
  // checkpoint before worker replicas race to read it, serves as the
  // inline worker, and supplies the clean accuracy.
  Replica primary = make_replica(spec, eval_, /*eval_clean=*/true);
  std::unique_ptr<ThreadPool> pool;
  if (threads_ > 1) pool = std::make_unique<ThreadPool>(threads_);
  std::atomic<std::int64_t> profile_images{0}, eval_images{0};

  RADAR_LOG(kInfo) << "campaign " << spec.name << ": " << n_units
                   << " trials (" << n_profiles << " profiles) on "
                   << threads_ << " thread(s)";

  // ---- phase 1: attack profiles, one per (attacker, fault, trial) ----
  const auto t0 = clock::now();
  std::vector<attack::AttackResult> profiles(n_profiles);
  std::vector<bool> group_cached(A * F, false);
  if (!spec.cache_tag.empty()) {
    for (std::size_t ai = 0; ai < A; ++ai)
      for (std::size_t fi = 0; fi < F; ++fi) {
        const std::string path = profile_cache_path(spec, ai, fi);
        if (!file_exists(path)) continue;
        std::vector<attack::AttackResult> loaded;
        try {
          loaded = attack::load_profiles(path);
        } catch (const Error&) {
          continue;  // corrupt/truncated cache (killed run): recompute
        }
        if (loaded.size() != T) continue;  // stale: recompute
        for (std::size_t t = 0; t < T; ++t)
          profiles[(ai * F + fi) * T + t] = std::move(loaded[t]);
        group_cached[ai * F + fi] = true;
      }
  }
  std::vector<std::size_t> pending;
  pending.reserve(n_profiles);
  for (std::size_t p = 0; p < n_profiles; ++p)
    if (!group_cached[p / T]) pending.push_back(p);

  // Content-derived stream ids: the RNG of trial t of a profile group
  // depends on what the group *is*, not where it sits in the matrix, so
  // cached groups stay valid when the spec is edited around them.
  std::vector<std::uint64_t> group_hash(A * F);
  for (std::size_t ai = 0; ai < A; ++ai)
    for (std::size_t fi = 0; fi < F; ++fi)
      group_hash[ai * F + fi] =
          signature_hash(profile_signature(spec, ai, fi));

  auto run_profile = [&](Replica& rep, std::size_t p) {
    const std::size_t t = p % T;
    const std::size_t fi = (p / T) % F;
    const std::size_t ai = p / (T * F);
    const std::uint64_t unit =
        group_hash[ai * F + fi] +
        0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(t + 1);
    const AttackerSpec& atk = spec.attackers[ai];
    quant::QuantizedModel& qm = *rep.bundle.qmodel;
    qm.restore(rep.clean);
    Rng rng(derive_seed(spec.seed, 1, unit));
    attack::AttackResult res;
    if (atk.kind == "random") {
      res = attack::random_bit_flips(qm, atk.flips, rng);
    } else if (atk.kind == "random_msb") {
      res = attack::random_msb_flips(qm, atk.flips, rng);
    } else if (atk.kind == "pbfa") {
      attack::PbfaConfig pc;
      if (!atk.allowed_bits.empty()) pc.allowed_bits = atk.allowed_bits;
      attack::Pbfa pbfa(pc);
      const data::Batch batch = rep.bundle.dataset->attack_batch(
          atk.attack_batch, derive_seed(spec.seed, 2, unit));
      res = pbfa.run(qm, batch, atk.flips);
    } else if (atk.kind == "rowhammer") {
      attack::RowhammerConfig rc;
      rc.dram.mapping = atk.mapping == "rowmajor"
                            ? sim::AddressMapping::kRowMajor
                            : sim::AddressMapping::kBankStripe;
      rc.dram.row_bytes = atk.row_bytes;
      rc.rows = atk.rows;
      rc.activations = atk.activations;
      rc.double_sided = atk.double_sided;
      res = attack::rowhammer_attack(qm, rc, rng);
    } else {  // "knowledgeable"
      attack::KnowledgeableConfig kc;
      kc.assumed_group_size = atk.assumed_group_size;
      if (!atk.allowed_bits.empty()) kc.pbfa.allowed_bits = atk.allowed_bits;
      attack::KnowledgeableAttacker attacker(kc);
      const data::Batch batch = rep.bundle.dataset->attack_batch(
          atk.attack_batch, derive_seed(spec.seed, 2, unit));
      res = attacker.run(qm, batch, atk.flips, rng);
    }
    // Ambient faults: independent MSB flips at the cell's fault rate.
    const double rate = spec.fault_rates[fi];
    const auto n_faults = static_cast<int>(
        std::llround(rate * static_cast<double>(qm.total_weights())));
    if (n_faults > 0) {
      Rng frng(derive_seed(spec.seed, 3, unit));
      const auto faults = attack::random_msb_flips(qm, n_faults, frng);
      res.flips.insert(res.flips.end(), faults.flips.begin(),
                       faults.flips.end());
    }
    if (spec.eval_subset > 0)
      res.accuracy_after =
          exp::accuracy_on_subset(rep.bundle, spec.eval_subset);
    qm.restore(rep.clean);
    profiles[p] = std::move(res);
  };
  struct NoContext {};
  for_each_unit<NoContext>(
      pending.size(), pool.get(), primary, spec, eval_, profile_images,
      [&](Replica& rep, NoContext&, std::size_t k) {
        run_profile(rep, pending[k]);
      });

  if (!spec.cache_tag.empty()) {
    for (std::size_t ai = 0; ai < A; ++ai)
      for (std::size_t fi = 0; fi < F; ++fi) {
        if (group_cached[ai * F + fi]) continue;
        std::vector<attack::AttackResult> group(
            profiles.begin() +
                static_cast<std::ptrdiff_t>((ai * F + fi) * T),
            profiles.begin() +
                static_cast<std::ptrdiff_t>((ai * F + fi + 1) * T));
        attack::save_profiles(profile_cache_path(spec, ai, fi), group);
      }
  }
  const auto t1 = clock::now();

  // ---- phase 2: replay + scan + recover, one per (cell, trial) ----
  std::vector<TrialOutcome> outcomes(n_units);
  auto run_trial = [&](Replica& rep, EvalContext& ctx, std::size_t u) {
    const std::size_t t = u % T;
    const std::size_t cell = u / T;
    const std::size_t si = cell % S;
    const std::size_t fi = (cell / S) % F;
    const std::size_t ai = cell / (S * F);
    quant::QuantizedModel& qm = *rep.bundle.qmodel;
    const bool incremental = mode_ == ScanMode::kIncremental;
    const bool scheduled = mode_ == ScanMode::kScheduled;
    if (ctx.slots.empty()) ctx.slots.resize(incremental ? S : 1);
    if (ctx.pool == nullptr && scan_threads_ != 1)
      ctx.pool = std::make_unique<ThreadPool>(scan_threads_);
    SchemeSlot& slot = ctx.slots[incremental ? si : 0];
    if (incremental && !qm.dirty_tracking()) qm.set_dirty_tracking(true);
    // kIncremental attaches each scheme column once per worker and reuses
    // it across cells: schemes depend only on their spec and the clean
    // model, and the model is clean here (fresh replica, or undone by the
    // previous trial). The other modes re-attach at every cell boundary.
    if (incremental ? slot.scheme == nullptr : ctx.cell != cell) {
      if (!incremental) qm.restore(rep.clean);  // attach to clean weights
      const SchemeSpec& ss = spec.schemes[si];
      slot.scheme = core::SchemeRegistry::instance().create(ss.id, ss.params);
      slot.scheme->attach(qm);
      core::ScanScheduler::Config scfg;
      if (scheduled) {
        scfg.budget_us = eval_.scan_budget_us;
        scfg.budget_bytes = eval_.scan_budget_bytes;
        scfg.chunk_bytes = eval_.scan_chunk_bytes;
        // Prime the engine's cached eval batches while the model is
        // clean so each slice can interleave a real inference batch.
        if (spec.eval_subset > 0)
          exp::accuracy_on_subset(rep.bundle, spec.eval_subset);
      }
      slot.scheduler.plan(*slot.scheme, scfg);
      ctx.cell = cell;
    }
    core::IntegrityScheme& scheme = *slot.scheme;
    core::ScanScheduler& sched = slot.scheduler;
    const attack::AttackResult& profile = profiles[(ai * F + fi) * T + t];
    for (const attack::BitFlip& f : profile.flips)
      qm.flip_bit(f.layer, f.index, f.bit);
    TrialOutcome& o = outcomes[u];
    if (incremental) {
      sched.scan_dirty_into(qm, ctx.report, ctx.pool.get());
    } else {
      // Drain scan slices until the sweep wraps: one unlimited slice in
      // kFull; in kScheduled, budgeted slices interleaved with inference
      // batches — the serve-path cadence, measured per trial. A completed
      // sweep's report equals a serial scan bit for bit, so everything
      // downstream (detection counts, recovery, accuracy) is
      // byte-identical across the modes; only the timing telemetry
      // differs.
      using clock = std::chrono::steady_clock;
      sched.restart_sweep();
      const auto s0 = clock::now();
      core::ScanScheduler::Slice slice;
      do {
        if (scheduled && rep.bundle.engine != nullptr &&
            !rep.bundle.eval_batches.empty()) {
          const data::Batch& tb = rep.bundle.eval_batches
              [static_cast<std::size_t>(o.sched_slices) %
               rep.bundle.eval_batches.size()];
          const auto b0 = clock::now();
          rep.bundle.engine->forward_into(tb.images, rep.bundle.eval_scratch,
                                          rep.bundle.eval_logits);
          o.sched_batch_ns.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - b0)
                  .count());
          rep.bundle.eval_images += tb.images.dim(0);
        }
        slice = sched.run_slice(qm, ctx.pool.get());
        o.sched_scan_ns += slice.elapsed_ns;
        o.sched_bytes += slice.bytes;
        ++o.sched_slices;
        if (slice.flagged && o.sched_ttd_slices < 0) {
          o.sched_ttd_slices = o.sched_slices;
          o.sched_ttd_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - s0)
                  .count();
        }
      } while (!slice.wrapped);
      o.sched_sweep_ns = sched.last_sweep_ns();
    }
    const core::DetectionReport& report =
        incremental ? ctx.report : sched.last_sweep_report();
    o.flips = static_cast<std::int64_t>(profile.flips.size());
    o.detected =
        core::count_detected_flips(scheme, report, profile.flip_sites());
    o.flagged = report.num_flagged_groups();
    o.any_detected = report.attack_detected();
    scheme.recover(qm, report, spec.policy);
    if (spec.eval_subset > 0)
      o.acc_recovered = exp::accuracy_on_subset(rep.bundle, spec.eval_subset);
    if (incremental)
      qm.undo_dirty();  // exact write-by-write inverse of this trial
    else
      qm.restore(rep.clean);
  };
  for_each_unit<EvalContext>(n_units, pool.get(), primary, spec, eval_,
                             eval_images, run_trial);
  const auto t2 = clock::now();

  // ---- aggregate in fixed cell-major order ----
  CampaignReport report;
  report.name = spec.name;
  report.model = spec.model;
  report.seed = spec.seed;
  report.trials = spec.trials;
  report.clean_accuracy = primary.bundle.clean_accuracy;
  report.num_fault_rates = F;
  report.num_schemes = S;
  report.threads = threads_;
  report.profile_seconds = std::chrono::duration<double>(t1 - t0).count();
  report.eval_seconds = std::chrono::duration<double>(t2 - t1).count();
  report.profile_images = profile_images.load();
  report.eval_images = eval_images.load();
  report.cells.reserve(A * F * S);
  for (std::size_t ai = 0; ai < A; ++ai) {
    for (std::size_t fi = 0; fi < F; ++fi) {
      for (std::size_t si = 0; si < S; ++si) {
        CellStats c;
        c.attacker = spec.attackers[ai].label();
        c.scheme = spec.schemes[si].label();
        c.fault_rate = spec.fault_rates[fi];
        c.trials = spec.trials;
        std::int64_t flips = 0, detected = 0, flagged = 0;
        int any = 0, missed = 0;
        double acc_att = 0.0, acc_rec = 0.0;
        const std::size_t cell = (ai * F + fi) * S + si;
        for (std::size_t t = 0; t < T; ++t) {
          const TrialOutcome& o = outcomes[cell * T + t];
          flips += o.flips;
          detected += o.detected;
          flagged += o.flagged;
          any += o.any_detected ? 1 : 0;
          missed += (o.flips > 0 && !o.any_detected) ? 1 : 0;
          acc_att += profiles[(ai * F + fi) * T + t].accuracy_after;
          acc_rec += o.acc_recovered;
        }
        const auto n = static_cast<double>(T);
        c.mean_flips = static_cast<double>(flips) / n;
        c.mean_detected = static_cast<double>(detected) / n;
        c.detection_rate =
            flips > 0 ? static_cast<double>(detected) /
                            static_cast<double>(flips)
                      : 0.0;
        c.trial_detection_rate = static_cast<double>(any) / n;
        c.miss_rate = static_cast<double>(missed) / n;
        c.mean_flagged_groups = static_cast<double>(flagged) / n;
        if (spec.eval_subset > 0) {
          c.mean_acc_attacked = acc_att / n;
          c.mean_acc_recovered = acc_rec / n;
        }
        report.cells.push_back(std::move(c));
      }
    }
  }

  if (mode_ == ScanMode::kScheduled) {
    ScheduledStats& sc = report.scheduled;
    sc.enabled = true;
    sc.budget_us = eval_.scan_budget_us;
    sc.budget_bytes = eval_.scan_budget_bytes;
    sc.chunk_bytes = eval_.scan_chunk_bytes;
    std::vector<std::int64_t> batch_ns;
    std::int64_t slices = 0, sweep_ns = 0, bytes = 0, scan_ns = 0;
    std::int64_t ttd_slice_sum = 0, ttd_ns_sum = 0;
    for (const TrialOutcome& o : outcomes) {
      ++sc.trials;
      slices += o.sched_slices;
      sweep_ns += o.sched_sweep_ns;
      bytes += o.sched_bytes;
      scan_ns += o.sched_scan_ns;
      batch_ns.insert(batch_ns.end(), o.sched_batch_ns.begin(),
                      o.sched_batch_ns.end());
      if (o.sched_ttd_slices >= 0) {
        ++sc.detected_trials;
        ttd_slice_sum += o.sched_ttd_slices;
        ttd_ns_sum += o.sched_ttd_ns;
        sc.worst_ttd_slices =
            std::max(sc.worst_ttd_slices, o.sched_ttd_slices);
        sc.worst_ttd_ms = std::max(
            sc.worst_ttd_ms, static_cast<double>(o.sched_ttd_ns) / 1e6);
      }
    }
    if (sc.detected_trials > 0) {
      const auto nd = static_cast<double>(sc.detected_trials);
      sc.mean_ttd_slices = static_cast<double>(ttd_slice_sum) / nd;
      sc.mean_ttd_ms = static_cast<double>(ttd_ns_sum) / nd / 1e6;
    }
    if (sc.trials > 0) {
      sc.mean_slices_per_sweep =
          static_cast<double>(slices) / static_cast<double>(sc.trials);
      sc.mean_sweep_ms = static_cast<double>(sweep_ns) /
                         static_cast<double>(sc.trials) / 1e6;
    }
    if (scan_ns > 0)
      sc.scan_bytes_per_sec =
          static_cast<double>(bytes) * 1e9 / static_cast<double>(scan_ns);
    sc.batches = static_cast<std::int64_t>(batch_ns.size());
    if (!batch_ns.empty()) {
      std::sort(batch_ns.begin(), batch_ns.end());
      const std::size_t p99 =
          std::min(batch_ns.size() - 1, (batch_ns.size() * 99) / 100);
      sc.p99_batch_ms = static_cast<double>(batch_ns[p99]) / 1e6;
    }
  }
  return report;
}

}  // namespace radar::campaign
