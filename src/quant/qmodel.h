// QuantizedModel: the int8 view of a trained network's weights.
//
// This is the deployment artifact RADAR protects: every conv / fc weight
// tensor lives in one contiguous 64-byte-aligned WeightArena ("in DRAM" in
// the paper's threat model). Each QuantLayer::q is a span view into the
// arena; snapshots are one-memcpy ArenaSnapshots, restoring one copies
// back only the 64-byte blocks that differ, and baseline comparison under
// dirty tracking is a byte compare against a second arena copy.
//
// The float mirror is optional. Built from a network, the model keeps the
// network's float masters equal to q * scale, so that float forward passes
// and attacker gradients both see the quantized network; every code write
// (bit flips, undo, restore, loads) is synced back to them. Built from an
// arena table alone (a package's layer table: the serving path), the model
// has no network and no mirror: the arena is the whole model, writes touch
// only the codes, and network() / forward() throw InvalidArgument.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bits.h"
#include "nn/resnet.h"
#include "quant/quantizer.h"
#include "quant/weight_arena.h"

namespace radar::quant {

/// One quantized weight tensor — a view into the model's WeightArena.
struct QuantLayer {
  std::string name;            ///< hierarchical parameter name
  nn::Param* param = nullptr;  ///< float master (null: network-less)
  std::span<std::int8_t> q;    ///< int8 codes — the attack surface
  float scale = 1.0f;

  std::int64_t size() const { return static_cast<std::int64_t>(q.size()); }
};

/// One recorded weight mutation: enough to undo it and to map it to the
/// checksum group it lands in.
struct DirtyWrite {
  std::uint32_t layer = 0;
  std::int64_t index = 0;
  std::int8_t before = 0;  ///< code value the write replaced
};

class QuantizedModel {
 public:
  /// Quantizes all conv / fc weights of `model` in place (the float
  /// masters are rewritten to dequantized values). `model` must outlive
  /// this object.
  explicit QuantizedModel(nn::ResNet& model);

  /// Network-less model over an arena laid out from `table` (names, sizes
  /// and scales; offsets are reassigned by the shared geometry rule, see
  /// WeightArena::build). All codes start at zero; load_weights fills
  /// them. No float network or mirror exists.
  explicit QuantizedModel(std::vector<ArenaLayer> table);

  std::size_t num_layers() const { return layers_.size(); }
  QuantLayer& layer(std::size_t i) { return layers_.at(i); }
  const QuantLayer& layer(std::size_t i) const { return layers_.at(i); }
  std::int64_t total_weights() const { return arena_.total_weights(); }

  /// The contiguous weight store all layer spans point into.
  const WeightArena& arena() const { return arena_; }

  // ---- concurrent serving support ----
  // The epoch guard is the seqlock protocol a serving deployment layers
  // over the arena: scanners validate epochs around optimistic range
  // scans while writers (fault injection, recovery) bracket their
  // mutations in EpochGuard::WriterSection. Batch workloads never enable
  // it and pay nothing.
  void enable_epoch_guard(
      std::int64_t shard_bytes = kDefaultEpochShardBytes) {
    arena_.enable_epoch_guard(shard_bytes);
  }
  EpochGuard* epoch_guard() const { return arena_.epoch_guard(); }
  /// Arena blob byte range of one layer (epoch-validation coordinates).
  std::pair<std::int64_t, std::int64_t> layer_byte_range(
      std::size_t i) const {
    return arena_.layer_byte_range(i);
  }

  /// Global flat index (rank in layer order) <-> (layer, index) mapping.
  std::int64_t global_index(std::size_t layer, std::int64_t idx) const {
    return arena_.global_index(layer, idx);
  }
  std::pair<std::size_t, std::int64_t> locate(std::int64_t global) const {
    return arena_.locate(global);
  }

  /// False for a model built from an arena table alone.
  bool has_network() const { return model_ != nullptr; }
  /// The float network; throws InvalidArgument when network-less.
  nn::ResNet& network();
  const nn::ResNet& network() const;

  /// Inference through the (synced) float mirror; throws InvalidArgument
  /// when network-less.
  nn::Tensor forward(const nn::Tensor& x) {
    return network().forward(x, nn::Mode::kEval);
  }

  // ---- bit-level mutation (the attack surface) ----
  std::int8_t get_code(std::size_t layer, std::int64_t idx) const;
  void set_code(std::size_t layer, std::int64_t idx, std::int8_t v);
  /// Flip one bit and sync the affected float weight. Returns the code
  /// value before the flip.
  std::int8_t flip_bit(std::size_t layer, std::int64_t idx, int bit);

  /// Update one layer's quantization scale (package loads), keeping the
  /// arena's layer table in sync.
  void set_scale(std::size_t layer, float scale);

  /// Overwrite the whole arena blob (padding included) and per-layer
  /// scales — the package-v3 load path. `bytes` must have exactly
  /// arena().size_bytes() bytes laid out with this arena's geometry.
  /// Syncs the float mirror and resets the dirty baseline.
  void load_weights(std::span<const std::int8_t> bytes,
                    std::span<const float> scales);

  /// Rewrite the float master of one layer / all layers from int8 codes
  /// (no-ops when network-less).
  void sync_layer(std::size_t layer);
  void sync_all();

  // ---- dirty tracking (incremental scan / undo support) ----
  // When enabled, every set_code / flip_bit appends a DirtyWrite, so a
  // known-clean model can be returned to its exact prior state with
  // undo_dirty() (O(#writes), replacing O(#weights) restore calls) and an
  // incremental scan can rescan only the touched groups. Off by default:
  // attack search loops would otherwise grow the log unboundedly.
  void set_dirty_tracking(bool enabled);
  bool dirty_tracking() const { return track_dirty_; }
  const std::vector<DirtyWrite>& dirty_writes() const { return dirty_; }
  /// Forget the log without undoing (the current state becomes the new
  /// baseline the next undo_dirty() returns to).
  void clear_dirty();
  /// Reverse-apply every recorded write (newest first), syncing the float
  /// mirror of each touched weight, then clear the log.
  void undo_dirty();
  /// True when the current int8 state equals the baseline the dirty log
  /// started from (i.e. undo_dirty() would be a no-op on the codes) —
  /// O(#writes) byte compares against the baseline arena copy,
  /// allocation-free. Lets eval paths reuse cached clean results when a
  /// recovery restored the model exactly.
  bool dirty_matches_baseline() const;

  // ---- snapshots ----
  /// One-memcpy copy of the arena blob.
  ArenaSnapshot snapshot() const;
  /// Full-state restore: each layer whose bytes differ from the snapshot
  /// gets back only its differing 64-byte blocks, and only those blocks'
  /// floats are re-dequantized (bit-identical to sync_layer), so a restore
  /// after a few flips costs one compare pass plus the changed blocks.
  /// Also clears the dirty log (the restored state is the new baseline).
  void restore(const ArenaSnapshot& snap);

  /// Total int8 weight bytes (= weight count).
  std::int64_t weight_bytes() const { return arena_.total_weights(); }

 private:
  nn::ResNet* model_ = nullptr;  ///< null: network-less
  WeightArena arena_;
  std::vector<QuantLayer> layers_;
  bool track_dirty_ = false;
  std::vector<DirtyWrite> dirty_;
  /// Arena copy at the last dirty baseline (valid while tracking).
  ArenaSnapshot baseline_;
};

}  // namespace radar::quant
