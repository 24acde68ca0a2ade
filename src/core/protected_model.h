// ProtectedModel: an IntegrityScheme embedded in the inference path
// (paper §IV/§V).
//
// Every inference first verifies the weight stream (as the paper does on
// each DRAM→cache fetch), recovers flagged groups, then runs the forward
// pass. Works with any registered scheme — RADAR signatures or the CRC /
// Fletcher / Hamming baselines. Counters expose how often scans,
// detections and recoveries happened, which the examples surface as a
// run-time security log. Whole-model scans are ScanScheduler sweeps,
// drained over a thread pool when set_scan_threads asks for one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/thread_pool.h"
#include "core/integrity_scheme.h"
#include "core/scan_scheduler.h"

namespace radar::core {

class ProtectedModel {
 public:
  /// Wraps (and holds references to) an attached scheme and model.
  ProtectedModel(quant::QuantizedModel& qm, IntegrityScheme& scheme,
                 RecoveryPolicy policy = RecoveryPolicy::kZeroOut)
      : qm_(&qm), scheme_(&scheme), policy_(policy) {
    RADAR_REQUIRE(scheme.attached(), "scheme must be attached first");
    scheduler_.plan(scheme, {});
  }

  /// Verified inference: scan → (recover if needed) → forward.
  nn::Tensor forward(const nn::Tensor& x);

  /// The paper's per-layer embedding (§IV): each weight tensor is scanned
  /// immediately before the network stage that consumes it executes, so
  /// detection happens on the DRAM→cache fetch path rather than as a
  /// whole-model preamble. Functionally equivalent to forward() but with
  /// layer-granular detection latency.
  nn::Tensor forward_layerwise(const nn::Tensor& x);

  /// Scan + recover without running inference; returns the report.
  DetectionReport check_and_recover();

  /// Size the pool whole-model scans drain over (0 = hardware
  /// concurrency, 1 = serial scans without a pool).
  void set_scan_threads(std::size_t threads) {
    pool_ = threads == 1 ? nullptr : std::make_unique<ThreadPool>(threads);
  }

  // ---- telemetry ----
  std::int64_t scans() const { return scans_; }
  std::int64_t detections() const { return detections_; }
  std::int64_t groups_recovered() const { return groups_recovered_; }

  /// Invoked on every detection (before recovery), e.g. to raise an alarm.
  void set_alarm(std::function<void(const DetectionReport&)> alarm) {
    alarm_ = std::move(alarm);
  }

  quant::QuantizedModel& model() { return *qm_; }
  IntegrityScheme& scheme() { return *scheme_; }

 private:
  /// Quantized-layer indices consumed by each Sequential stage (built
  /// lazily on first forward_layerwise call).
  const std::vector<std::vector<std::size_t>>& stage_map();
  /// Scan + recover one quantized layer; returns true on detection.
  bool check_layer(std::size_t qlayer);

  quant::QuantizedModel* qm_;
  IntegrityScheme* scheme_;
  RecoveryPolicy policy_;
  ScanScheduler scheduler_;           ///< unlimited-budget whole-model sweeps
  std::unique_ptr<ThreadPool> pool_;  ///< null: serial sweeps
  std::function<void(const DetectionReport&)> alarm_;
  std::vector<std::vector<std::size_t>> stage_map_;
  bool stage_map_built_ = false;
  std::int64_t scans_ = 0;
  std::int64_t detections_ = 0;
  std::int64_t groups_recovered_ = 0;
};

}  // namespace radar::core
