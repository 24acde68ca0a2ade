// Analytic timing model — the gem5 stand-in (README "Reproducing the
// paper" lists which reported times it models).
//
// Models the paper's platform: Cortex-M4F-class core at 1 GHz streaming
// int8 weights from DRAM through an L1/L2 hierarchy. Inference time is
//
//   cycles = cpm * MACs  +  cpw_load * weight_bytes
//
// and the protection schemes add
//
//   RADAR:  cks_per_weight * W  (+ ilv_per_weight * W if interleaved)
//           + group_cost * groups
//   CRC:    crc_per_byte * W + crc_group_cost * groups
//
// The constants default to values calibrated so that the *baseline and
// RADAR rows of the paper's Table IV/V are matched exactly* on the
// full-size network shapes; every other configuration (group-size sweeps,
// other codes, batch sizes) is then a prediction of the model.
// calibrate() re-derives the constants from any two (shape, time) pairs.
#pragma once

#include <cstdint>

#include "sim/netdesc.h"

namespace radar::sim {

struct SimConfig {
  double freq_hz = 1e9;

  // Inference core. cycles_per_mac is chosen so both Table IV baselines
  // land within a few percent (the exact 2x2 solution is ill-conditioned
  // and yields a nonphysical negative load cost).
  double cycles_per_mac = 1.70;
  double cycles_per_weight_load = 3.0;

  // RADAR detection (calibrated on Table IV RADAR rows: 2.4 ms @ G=8 on
  // ResNet-20 and 19 ms @ G=512 on ResNet-18, non-interleaved).
  double checksum_cycles_per_weight = 1.512;
  double interleave_cycles_per_weight = 3.79;
  double radar_group_cycles = 58.78;

  // CRC (bit-serial over each byte; calibrated on Table V CRC rows:
  // 17.9 ms / 317 ms detection overheads).
  double crc_cycles_per_byte = 26.52;
  double crc_group_cycles = 316.4;

  // Hamming SEC-DED (per-bit parity accumulation).
  double hamming_cycles_per_bit = 2.0;
  double hamming_group_cycles = 80.0;

  // Recovery costs.
  double zero_out_cycles_per_weight = 1.0;
  double reload_bytes_per_cycle = 8.0;  ///< DRAM refill bandwidth
};

/// Timing results in seconds.
struct TimingBreakdown {
  double baseline = 0.0;   ///< unprotected inference
  double detection = 0.0;  ///< added by the protection scheme
  double total() const { return baseline + detection; }
  double overhead_pct() const {
    return baseline > 0.0 ? 100.0 * detection / baseline : 0.0;
  }
};

class TimingSimulator {
 public:
  explicit TimingSimulator(const SimConfig& cfg = {}) : cfg_(cfg) {}

  const SimConfig& config() const { return cfg_; }

  /// Unprotected single-image inference time (seconds).
  double inference_seconds(const NetworkShape& net) const;

  /// Inference + RADAR detection embedded per layer.
  TimingBreakdown radar_seconds(const NetworkShape& net,
                                std::int64_t group_size,
                                bool interleave) const;

  /// Inference + CRC-based detection.
  TimingBreakdown crc_seconds(const NetworkShape& net,
                              std::int64_t group_size, int crc_width) const;

  /// Inference + Hamming SEC-DED detection.
  TimingBreakdown hamming_seconds(const NetworkShape& net,
                                  std::int64_t group_size) const;

  /// One-off recovery costs (seconds).
  double zero_out_seconds(std::int64_t weights_in_flagged_groups) const;
  double reload_seconds(std::int64_t total_weight_bytes) const;

  /// Multi-batch amortization: detection runs once per weight fetch while
  /// inference runs `batch` times (paper §VII.A last paragraph).
  TimingBreakdown radar_seconds_batched(const NetworkShape& net,
                                        std::int64_t group_size,
                                        bool interleave,
                                        std::int64_t batch) const;

  /// Calibrate (cycles_per_mac, cycles_per_weight_load) so that the two
  /// shapes hit the two target times exactly. Throws if the 2x2 system is
  /// singular.
  void calibrate_baseline(const NetworkShape& a, double seconds_a,
                          const NetworkShape& b, double seconds_b);

  /// Calibrate the per-weight / per-group RADAR costs from two measured
  /// detection overheads (non-interleaved).
  void calibrate_radar(const NetworkShape& a, std::int64_t ga,
                       double overhead_a, const NetworkShape& b,
                       std::int64_t gb, double overhead_b);

 private:
  SimConfig cfg_;
};

}  // namespace radar::sim
