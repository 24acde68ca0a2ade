#include "quant/qmodel.h"

#include <algorithm>
#include <cstring>

#include "common/simd_ops.h"

namespace radar::quant {

QuantizedModel::QuantizedModel(nn::ResNet& model) : model_(&model) {
  // First pass: quantize every eligible tensor and record the layer table.
  std::vector<QuantResult> results;
  std::vector<ArenaLayer> table;
  for (auto& np : model.params()) {
    const auto kind = np.param->kind;
    if (kind != nn::ParamKind::kConvWeight &&
        kind != nn::ParamKind::kLinearWeight)
      continue;
    QuantResult r = quantize_symmetric(np.param->value);
    table.push_back({np.name, 0,
                     static_cast<std::int64_t>(r.q.size()), r.scale});
    results.push_back(std::move(r));
    QuantLayer ql;
    ql.name = np.name;
    ql.param = np.param;
    ql.scale = results.back().scale;
    layers_.push_back(std::move(ql));
  }
  RADAR_REQUIRE(!layers_.empty(), "model has no quantizable weights");
  // Second pass: lay the codes out in the contiguous arena and point each
  // layer's span at its slice.
  arena_ = WeightArena::build(std::move(table));
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].q = arena_.span(i);
    if (!results[i].q.empty())
      std::memcpy(layers_[i].q.data(), results[i].q.data(),
                  results[i].q.size());
  }
  sync_all();
}

QuantizedModel::QuantizedModel(std::vector<ArenaLayer> table) {
  RADAR_REQUIRE(!table.empty(), "model has no quantizable weights");
  arena_ = WeightArena::build(std::move(table));
  layers_.resize(arena_.num_layers());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].name = arena_.layer(i).name;
    layers_[i].q = arena_.span(i);
    layers_[i].scale = arena_.layer(i).scale;
  }
}

nn::ResNet& QuantizedModel::network() {
  RADAR_REQUIRE(model_ != nullptr, "quantized model has no float network");
  return *model_;
}

const nn::ResNet& QuantizedModel::network() const {
  RADAR_REQUIRE(model_ != nullptr, "quantized model has no float network");
  return *model_;
}

std::int8_t QuantizedModel::get_code(std::size_t layer,
                                     std::int64_t idx) const {
  const QuantLayer& l = layers_.at(layer);
  RADAR_REQUIRE(idx >= 0 && idx < l.size(), "weight index out of range");
  return l.q[static_cast<std::size_t>(idx)];
}

void QuantizedModel::set_code(std::size_t layer, std::int64_t idx,
                              std::int8_t v) {
  QuantLayer& l = layers_.at(layer);
  RADAR_REQUIRE(idx >= 0 && idx < l.size(), "weight index out of range");
  if (track_dirty_)
    dirty_.push_back({static_cast<std::uint32_t>(layer), idx,
                      l.q[static_cast<std::size_t>(idx)]});
  l.q[static_cast<std::size_t>(idx)] = v;
  if (l.param != nullptr) l.param->value[idx] = dequantize(v, l.scale);
}

std::int8_t QuantizedModel::flip_bit(std::size_t layer, std::int64_t idx,
                                     int bit) {
  QuantLayer& l = layers_.at(layer);
  RADAR_REQUIRE(idx >= 0 && idx < l.size(), "weight index out of range");
  const std::int8_t before = l.q[static_cast<std::size_t>(idx)];
  if (track_dirty_)
    dirty_.push_back({static_cast<std::uint32_t>(layer), idx, before});
  const std::int8_t after = radar::flip_bit(before, bit);
  l.q[static_cast<std::size_t>(idx)] = after;
  if (l.param != nullptr) l.param->value[idx] = dequantize(after, l.scale);
  return before;
}

void QuantizedModel::set_scale(std::size_t layer, float scale) {
  layers_.at(layer).scale = scale;
  arena_.set_scale(layer, scale);
}

void QuantizedModel::load_weights(std::span<const std::int8_t> bytes,
                                  std::span<const float> scales) {
  RADAR_REQUIRE(static_cast<std::int64_t>(bytes.size()) ==
                    arena_.size_bytes(),
                "arena blob size mismatch");
  RADAR_REQUIRE(scales.size() == layers_.size(),
                "scale count does not match layer count");
  std::memcpy(arena_.bytes().data(), bytes.data(), bytes.size());
  // Re-establish the padding-is-zero invariant whole-blob compares rely
  // on: external blobs (deployment packages) may carry junk between
  // layers, which is semantically void.
  std::int64_t prev_end = 0;
  std::int8_t* base = arena_.bytes().data();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const ArenaLayer& l = arena_.layer(i);
    std::memset(base + prev_end, 0,
                static_cast<std::size_t>(l.offset - prev_end));
    prev_end = l.offset + l.size;
  }
  std::memset(base + prev_end, 0,
              static_cast<std::size_t>(arena_.size_bytes() - prev_end));
  for (std::size_t i = 0; i < layers_.size(); ++i) set_scale(i, scales[i]);
  sync_all();
  dirty_.clear();
  if (track_dirty_) baseline_.capture(arena_);
}

void QuantizedModel::set_dirty_tracking(bool enabled) {
  track_dirty_ = enabled;
  dirty_.clear();
  if (enabled) baseline_.capture(arena_);
}

void QuantizedModel::clear_dirty() {
  dirty_.clear();
  if (track_dirty_) baseline_.capture(arena_);
}

void QuantizedModel::undo_dirty() {
  // Newest-first so repeated writes to one index land on the oldest
  // `before`, i.e. the state at the last baseline.
  for (auto it = dirty_.rbegin(); it != dirty_.rend(); ++it) {
    QuantLayer& l = layers_[it->layer];
    l.q[static_cast<std::size_t>(it->index)] = it->before;
    if (l.param != nullptr)
      l.param->value[it->index] = dequantize(it->before, l.scale);
  }
  dirty_.clear();
  // The arena is back at the baseline state; baseline_ is still valid.
}

bool QuantizedModel::dirty_matches_baseline() const {
  // Untouched weights always equal the baseline, so only logged indices
  // need checking — each against the baseline arena copy.
  for (const DirtyWrite& w : dirty_) {
    if (layers_[w.layer].q[static_cast<std::size_t>(w.index)] !=
        baseline_.span(w.layer)[static_cast<std::size_t>(w.index)])
      return false;
  }
  return true;
}

void QuantizedModel::sync_layer(std::size_t layer) {
  QuantLayer& l = layers_.at(layer);
  if (l.param != nullptr) dequantize_into(l.q, l.scale, l.param->value.data());
}

void QuantizedModel::sync_all() {
  for (std::size_t i = 0; i < layers_.size(); ++i) sync_layer(i);
}

ArenaSnapshot QuantizedModel::snapshot() const {
  ArenaSnapshot snap;
  snap.capture(arena_);
  return snap;
}

void QuantizedModel::restore(const ArenaSnapshot& snap) {
  RADAR_REQUIRE(snap.num_layers() == layers_.size(),
                "snapshot layer count mismatch");
  RADAR_REQUIRE(snap.size_bytes() == arena_.size_bytes(),
                "snapshot size mismatch");
  // Same totals do not imply the same geometry: a foreign snapshot with
  // permuted layer sizes would land codes inside the wrong layers.
  for (std::size_t i = 0; i < layers_.size(); ++i)
    RADAR_REQUIRE(snap.layer(i).offset == arena_.layer(i).offset &&
                      snap.layer(i).size == arena_.layer(i).size,
                  "snapshot layer geometry mismatch");
  // Per-layer changed probe, then per-block: a restore after a handful of
  // flips (or none at all — campaign loops restore unconditionally)
  // should cost one compare pass at memory bandwidth plus the blocks the
  // flips landed in, not a layer-wide float dequantize. Layers start
  // 64-byte aligned, so each block is one cache line of codes; runs of
  // differing blocks are copied and dequantized together, so a layer that
  // differs everywhere costs what one memcpy + sync_layer does. The
  // padding between layers is zero on both sides by invariant, so
  // comparing the layer slices covers the blob.
  constexpr std::int64_t kBlock = kArenaAlignment;
  const std::int8_t* src = snap.bytes().data();
  std::int8_t* dst = arena_.bytes().data();
  bool any_changed = false;
  // The block loop calls the compare once per 64 bytes: resolve the
  // dispatch once, not per call.
  const simd::BytesEqualFn equal =
      simd::bytes_equal_table()[static_cast<int>(cpu::active_level())];
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const ArenaLayer& l = arena_.layer(i);
    if (l.size == 0) continue;
    const std::int8_t* s = src + l.offset;
    std::int8_t* d = dst + l.offset;
    if (equal(d, s, static_cast<std::size_t>(l.size))) continue;
    any_changed = true;
    const auto block_equal = [&](std::int64_t b) {
      return equal(d + b, s + b,
                   static_cast<std::size_t>(std::min(kBlock, l.size - b)));
    };
    const QuantLayer& ql = layers_[i];
    float* mirror = ql.param != nullptr ? ql.param->value.data() : nullptr;
    for (std::int64_t b = 0; b < l.size;) {
      if (block_equal(b)) {
        b += kBlock;
        continue;
      }
      std::int64_t e = b + kBlock;
      while (e < l.size && !block_equal(e)) e += kBlock;
      e = std::min(e, l.size);
      const auto n = static_cast<std::size_t>(e - b);
      std::memcpy(d + b, s + b, n);
      if (mirror != nullptr)
        dequantize_into(ql.q.subspan(static_cast<std::size_t>(b), n),
                        ql.scale, mirror + b);
      b = e;
    }
  }
  if (!any_changed && dirty_.empty()) return;  // baseline already current
  dirty_.clear();
  if (track_dirty_) baseline_.capture(arena_);
}

}  // namespace radar::quant
