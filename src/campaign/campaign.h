// CampaignRunner: parallel execution of declarative attack campaigns.
//
// A CampaignSpec expands into independent units in two phases, both fanned
// out over a radar::ThreadPool:
//
//   1. profiles — one per (attacker, fault rate, trial): inject the
//      attacker's flips plus ambient MSB faults into a clean model replica
//      and record the committed BitFlips (and post-attack accuracy when
//      eval_subset > 0);
//   2. evaluation — one per (attacker, fault rate, scheme, trial): replay
//      the recorded flips against an attached scheme, scan it through a
//      core::ScanScheduler, apply the recovery policy, and measure the
//      outcome.
//
// Determinism is by construction: every unit draws from an RNG seeded by
// derive_seed(spec.seed, phase, unit) — a pure function of the spec, never
// of scheduling — each worker chunk runs on its own identical model
// replica, and results land in per-unit slots that are aggregated in a
// fixed order. A CampaignReport is therefore bit-identical for 1 and N
// worker threads (the acceptance property of the differential tests).
#pragma once

#include <cstdint>

#include "campaign/campaign_report.h"
#include "campaign/campaign_spec.h"
#include "qnn/engine.h"

namespace radar::campaign {

/// Order-free seed derivation (splitmix64-style chain): one independent
/// stream per (phase, unit) pair, regardless of execution order.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t phase,
                          std::uint64_t unit);

/// How the evaluation phase scans and restores between trials. Every mode
/// scans through a core::ScanScheduler; they differ in what a trial scans
/// and how it is undone.
enum class ScanMode {
  /// One unlimited-budget sweep of every group plus a whole-model
  /// snapshot restore per trial (the differential baseline).
  kFull,
  /// Incremental: schemes attach once per worker and stay cached, each
  /// trial's writes are tracked as dirty ranges, only the touched groups
  /// are rescanned, and the trial is undone write-by-write instead of
  /// restoring the whole snapshot. Reports are byte-identical to kFull
  /// (enforced by CI and the differential tests).
  kIncremental,
  /// Scheduled: kFull's sweep, drained in budget-bounded slices with one
  /// inference batch interleaved before each slice, recording
  /// time-to-detect as a function of the budget —
  /// the detection-latency side of the QoS Pareto. The completed sweep's
  /// report is byte-identical to kFull for ANY budget (the budget moves
  /// *when* groups are scanned, never what a sweep reports), so default
  /// (non-timing) reports diff clean against kFull; the scheduling
  /// telemetry lands in the timing-gated JSON section only.
  kScheduled,
};

/// How the evaluation phase runs accuracy measurements and (for
/// ScanMode::kScheduled) slices the interleaved scan. Pure throughput /
/// latency knobs: the int8 engine is bit-exact across kinds and batch
/// sizes and a scheduled sweep reports exactly what a full scan reports,
/// so default reports are byte-identical for every combination
/// (CI-enforced).
struct EvalOptions {
  std::int64_t batch = 0;  ///< images per engine forward (0 = auto)
  qnn::EngineKind engine = qnn::EngineKind::kBatched;
  // ---- ScanMode::kScheduled knobs (ignored by the other modes) ----
  std::int64_t scan_budget_us = -1;     ///< per-slice wall budget (<0: off)
  std::int64_t scan_budget_bytes = -1;  ///< per-slice byte budget (<0: off)
  std::int64_t scan_chunk_bytes = 16 * 1024;  ///< sweep granule
};

class CampaignRunner {
 public:
  /// `threads`: trial-level workers (0 = hardware concurrency, 1 =
  /// inline). `scan_threads`: size of each worker's scan pool, which
  /// unlimited-budget sweeps drain over (0 = hardware concurrency, 1 = no
  /// pool; per-trial scans stay bit-identical to serial scans).
  explicit CampaignRunner(std::size_t threads = 1,
                          std::size_t scan_threads = 1,
                          ScanMode mode = ScanMode::kFull,
                          EvalOptions eval = {});

  std::size_t threads() const { return threads_; }
  ScanMode scan_mode() const { return mode_; }
  const EvalOptions& eval_options() const { return eval_; }

  /// Validate and run `spec`; throws InvalidArgument on a bad spec.
  CampaignReport run(const CampaignSpec& spec) const;

 private:
  std::size_t threads_;
  std::size_t scan_threads_;
  ScanMode mode_;
  EvalOptions eval_;
};

}  // namespace radar::campaign
