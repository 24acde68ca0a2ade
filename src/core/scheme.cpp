#include "core/scheme.h"

namespace radar::core {

RadarConfig RadarConfig::from_params(const SchemeParams& p, int bits) {
  RadarConfig cfg;
  cfg.group_size = p.group_size;
  cfg.interleave = p.interleave;
  cfg.skew = p.skew;
  cfg.signature_bits = bits;
  cfg.expansion = p.expansion;
  cfg.master_key = p.master_key;
  return cfg;
}

SchemeParams RadarConfig::to_params() const {
  SchemeParams p;
  p.group_size = group_size;
  p.interleave = interleave;
  p.skew = skew;
  p.expansion = expansion;
  p.master_key = master_key;
  return p;
}

RadarScheme::RadarScheme(const RadarConfig& cfg)
    : IntegrityScheme(cfg.signature_bits == 3 ? "radar3" : "radar2",
                      cfg.to_params()),
      sig_bits_(cfg.signature_bits) {
  RADAR_REQUIRE(cfg.signature_bits == 2 || cfg.signature_bits == 3,
                "signature width must be 2 or 3");
}

void RadarScheme::attach(const quant::QuantizedModel& qm, bool sign) {
  attach_layouts(qm);
  scanners_.clear();
  golden_.clear();
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    const MaskStream mask(MaskStream::derive_layer_key(params_.master_key, li),
                          params_.expansion);
    scanners_.emplace_back(layouts_[li], mask, sig_bits_);
    golden_.emplace_back(layouts_[li].num_groups(), sig_bits_);
  }
  if (sign) resign(qm);
}

void RadarScheme::resign_layer(const quant::QuantizedModel& qm,
                               std::size_t layer) {
  RADAR_REQUIRE(layouts_.size() == qm.num_layers(),
                "scheme not attached to this model");
  RADAR_REQUIRE(layer < layouts_.size(), "layer out of range");
  ScanScratch scratch;
  scanners_[layer].signature_words_range_into(
      qm.layer(layer).q, 0, layouts_[layer].num_groups(), scratch);
  for (std::size_t g = 0; g < scratch.state.size(); ++g)
    golden_[layer].set(
        static_cast<std::int64_t>(g),
        Signature{static_cast<std::uint8_t>(scratch.state[g]), sig_bits_});
}

void RadarScheme::scan_layer_groups(const quant::QuantizedModel& qm,
                                    std::size_t layer,
                                    std::span<const std::int64_t> groups,
                                    std::vector<std::int64_t>& flagged,
                                    ScanScratch& /*scratch*/) const {
  RADAR_REQUIRE(attached(), "scan before attach");
  const auto& ql = qm.layer(layer);
  const std::span<const std::int8_t> w(ql.q.data(), ql.q.size());
  flagged.clear();
  for (const std::int64_t g : groups) {
    if (!(scanners_[layer].group_signature_at(w, g) == golden_[layer].get(g)))
      flagged.push_back(g);
  }
}

void RadarScheme::scan_layer_range_into(const quant::QuantizedModel& qm,
                                        std::size_t layer,
                                        std::int64_t group_begin,
                                        std::int64_t group_end,
                                        std::vector<std::int64_t>& flagged,
                                        ScanScratch& scratch) const {
  RADAR_REQUIRE(attached(), "scan before attach");
  RADAR_REQUIRE(layouts_.size() == qm.num_layers(),
                "scheme not attached to this model");
  RADAR_REQUIRE(layer < layouts_.size() && group_begin >= 0 &&
                    group_begin <= group_end &&
                    group_end <= layouts_[layer].num_groups(),
                "group range out of bounds");
  scanners_[layer].signature_words_range_into(qm.layer(layer).q, group_begin,
                                              group_end, scratch);
  flagged.clear();
  golden_[layer].append_mismatches(group_begin, scratch.state, flagged);
}

std::int64_t RadarScheme::signature_storage_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& store : golden_) bytes += store.storage_bytes();
  return bytes;
}

std::vector<std::vector<std::uint8_t>> RadarScheme::export_golden() const {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(golden_.size());
  for (const auto& store : golden_) out.push_back(store.packed());
  return out;
}

void RadarScheme::import_golden(
    std::vector<std::vector<std::uint8_t>> packed) {
  RADAR_REQUIRE(attached(), "import_golden before attach");
  RADAR_REQUIRE(packed.size() == golden_.size(),
                "golden layer count mismatch");
  for (std::size_t li = 0; li < golden_.size(); ++li)
    golden_[li].set_packed(std::move(packed[li]));
}

}  // namespace radar::core
