// DRAM + rowhammer fault-injection model.
//
// The paper's attacker flips PBFA-chosen bits through DRAM rowhammer; the
// defense never sees the mechanism, only the corrupted weights. This model
// closes that loop at the physical-address level: weights live in DRAM
// organized as channels x ranks x banks x rows x columns, a configurable
// mapping function places arena byte offsets onto that geometry, and
// hammering an aggressor row disturbs its two same-bank neighbours —
// susceptible cells in a victim row flip with a probability that rises
// with the accumulated activation pressure on its adjacent aggressors
// (double-sided hammering pressures a victim from both rows at once).
//
// Two API layers coexist:
//  - the legacy flat-row view (map_buffer / hammer / targeted_flip /
//    apply_dram_flips_to_model) used by the edge-deployment example, where
//    the default geometry (one channel/rank/bank) reproduces the original
//    linear row space bit for bit, and
//  - the physical layer (decompose / compose / hammer_victim) that the
//    rowhammer campaign attacker drives: flips come back annotated with
//    the arena byte offset each victim cell maps to, so bursts stay
//    spatially correlated through any mapping function.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "quant/qmodel.h"

namespace radar::sim {

/// How arena byte offsets are placed onto the physical geometry.
enum class AddressMapping {
  /// Linear: consecutive bytes fill a row, rows fill a bank, banks fill a
  /// rank... One DRAM row == `row_bytes` consecutive arena bytes (the
  /// legacy flat-row view when the geometry is 1x1x1).
  kRowMajor,
  /// Controller-style interleave: consecutive `stripe_bytes` granules
  /// rotate across every bank in the system before advancing the row, so
  /// one hammered row touches bytes `stripe_bytes` apart strided by
  /// (total banks x stripe_bytes) across the arena.
  kBankStripe,
};

struct DramConfig {
  std::int64_t row_bytes = 8192;  ///< one DRAM row (columns) per bank
  std::int64_t num_rows = 65536;  ///< rows per bank
  double cell_vulnerability = 5e-4;  ///< fraction of hammer-susceptible cells
  std::int64_t hammer_threshold = 50000;  ///< activations to induce flips
  std::uint64_t seed = 99;
  // Physical organization. The defaults (one channel/rank/bank, row-major)
  // keep the legacy flat-row behaviour exactly.
  std::int64_t channels = 1;
  std::int64_t ranks = 1;
  std::int64_t banks = 1;
  AddressMapping mapping = AddressMapping::kRowMajor;
  std::int64_t stripe_bytes = 128;  ///< kBankStripe interleave granule
  /// Flip-probability ramp: at pressure == hammer_threshold a susceptible
  /// victim cell flips with probability 1/flip_ramp, saturating at 1 after
  /// `flip_ramp` further activations. <= 1 makes the threshold a step.
  std::int64_t flip_ramp = 50000;
};

/// A bit flip that occurred in DRAM. `row` is the *global* row id
/// (channel/rank/bank folded in; equal to the flat row for the default
/// geometry) and `offset` is the arena byte offset the cell maps back to
/// (-1 when produced by the legacy flat-row API).
struct DramFlip {
  std::int64_t row = 0;
  std::int64_t byte_in_row = 0;
  int bit = 0;
  std::int64_t offset = -1;
};

/// A fully decomposed physical address.
struct PhysAddr {
  std::int64_t channel = 0;
  std::int64_t rank = 0;
  std::int64_t bank = 0;
  std::int64_t row = 0;
  std::int64_t col = 0;
};

class DramModel {
 public:
  explicit DramModel(const DramConfig& cfg);

  const DramConfig& config() const { return cfg_; }

  /// Banks across the whole system (channels x ranks x banks).
  std::int64_t total_banks() const { return total_banks_; }
  /// Rows across the whole system (total_banks x num_rows).
  std::int64_t total_rows() const { return total_banks_ * cfg_.num_rows; }
  std::int64_t capacity_bytes() const {
    return total_rows() * cfg_.row_bytes;
  }

  // --- physical address mapping -------------------------------------
  /// Arena byte offset -> (channel, rank, bank, row, col). Exact inverse
  /// of compose(); throws when the offset exceeds the capacity.
  PhysAddr decompose(std::int64_t offset) const;
  /// (channel, rank, bank, row, col) -> arena byte offset.
  std::int64_t compose(const PhysAddr& addr) const;
  /// Flat row id of an address: rows of one bank are consecutive, banks
  /// are ordered (channel, rank, bank). Keys the activation counters.
  std::int64_t global_row(const PhysAddr& addr) const;

  /// Map a weight buffer into consecutive flat rows starting at
  /// `base_row`; returns the number of rows occupied. Rejects mappings
  /// that fall outside the geometry or overlap an earlier mapping.
  std::int64_t map_buffer(std::int64_t base_row, std::int64_t bytes);

  // --- legacy flat-row attack surface --------------------------------
  /// Hammer the rows adjacent to `victim_row` `activations` times. Bits
  /// in the victim row flip where the cell is susceptible once the
  /// accumulated count reaches the hammer threshold (and never below it).
  std::vector<DramFlip> hammer(std::int64_t victim_row,
                               std::int64_t activations);

  /// Targeted variant (the DeepHammer-style attacker): hammer the
  /// victim's neighbours `activations` times (default: exactly the
  /// threshold) and flip a specific bit (0-7). Sub-threshold accumulated
  /// activations never flip; past the threshold the flip succeeds with
  /// probability `placement_success` — an attacker who massages memory
  /// layout until the target lands on a vulnerable cell.
  bool targeted_flip(std::int64_t row, std::int64_t byte_in_row, int bit,
                     double placement_success, Rng& rng,
                     std::int64_t activations = -1);

  // --- physical rowhammer attack surface ------------------------------
  /// One full rowhammer pass against the row addressed by `victim` (its
  /// `col` is ignored): activate the aggressor row above it — and below
  /// it too when `double_sided` — `activations` times each, then harvest
  /// the victim's flips. Pressure accumulates across calls, like the
  /// flat-row counters.
  std::vector<DramFlip> hammer_victim(const PhysAddr& victim,
                                      std::int64_t activations,
                                      bool double_sided, Rng& rng);

  /// Activate (open) one aggressor row `activations` times.
  void activate(const PhysAddr& aggressor, std::int64_t activations);

  /// Collect the flips the current neighbour pressure induces in the row
  /// addressed by `victim` (its `col` is ignored). Susceptible cells flip
  /// with probability rising in (pressure - threshold); below the
  /// threshold nothing flips. Flips carry the arena byte offset.
  std::vector<DramFlip> harvest(const PhysAddr& victim, Rng& rng);

  /// Is the given cell susceptible to rowhammer? `row` is a global row.
  bool susceptible(std::int64_t row, std::int64_t byte_in_row, int bit) const;

  /// Accumulated activation count of a global row.
  std::int64_t activations(std::int64_t row) const;

 private:
  std::uint64_t cell_hash(std::int64_t row, std::int64_t byte_in_row,
                          int bit) const;
  /// Aggressor pressure on a victim global row: the activation counts of
  /// its same-bank neighbours.
  std::int64_t pressure_on(std::int64_t global_row) const;

  DramConfig cfg_;
  std::int64_t total_banks_ = 1;
  std::vector<std::int64_t> activation_count_;  ///< per global row
  /// Mapped [begin, end) flat-row intervals (overlap rejection).
  std::vector<std::pair<std::int64_t, std::int64_t>> mapped_;
  std::uint64_t salt_;
};

/// Glue: apply a set of DRAM flips to the int8 weight buffers of a model,
/// given the row where the model's weights start. Returns the number of
/// flips that landed inside weight storage.
std::int64_t apply_dram_flips_to_model(const std::vector<DramFlip>& flips,
                                       std::int64_t model_base_row,
                                       const DramConfig& cfg,
                                       quant::QuantizedModel& qm);

}  // namespace radar::sim
