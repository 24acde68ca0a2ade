#include "core/scheme.h"

namespace radar::core {

RadarScheme::RadarScheme(const SchemeParams& params, int bits)
    : IntegrityScheme(bits == 3 ? "radar3" : "radar2", params),
      sig_bits_(bits) {
  RADAR_REQUIRE(bits == 2 || bits == 3, "signature width must be 2 or 3");
}

int RadarScheme::prepare(const quant::QuantizedModel& qm) {
  scanners_.clear();
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    const MaskStream mask(MaskStream::derive_layer_key(params_.master_key, li),
                          params_.expansion);
    scanners_.emplace_back(layouts_[li], mask, sig_bits_);
  }
  return sig_bits_;
}

void RadarScheme::words_into(const quant::QuantizedModel& qm,
                             std::size_t layer, std::int64_t group_begin,
                             std::int64_t group_end,
                             ScanScratch& scratch) const {
  scanners_[layer].signature_words_range_into(qm.layer(layer).q, group_begin,
                                              group_end, scratch);
}

std::uint32_t RadarScheme::group_word(const quant::QuantizedModel& qm,
                                      std::size_t layer, std::int64_t group,
                                      ScanScratch& /*scratch*/) const {
  return scanners_[layer].group_signature_at(qm.layer(layer).q, group).bits;
}

}  // namespace radar::core
