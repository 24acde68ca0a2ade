// RadarScheme: the paper's detection + recovery pipeline as one
// IntegrityScheme implementation (registry ids "radar2" / "radar3").
//
// A group's word is its 2- or 3-bit signature: the masked sum of its
// weights under the layer's 16-bit mask key, binarized (core/checksum.h).
// prepare() derives one LayerScanner per layer, the mask signs fixed once
// per weight; words_into is the scanner's dense range kernel and
// group_word its O(G) single-group walk. Everything else — golden words,
// scans, recovery (the paper's zero-out, or restoring a clean copy to
// model the halt-and-reload alternative) — is IntegrityScheme's.
#pragma once

#include <cstdint>
#include <vector>

#include "core/integrity_scheme.h"
#include "core/scanner.h"

namespace radar::core {

class RadarScheme : public IntegrityScheme {
 public:
  /// Grouping and mask key from `params`; `bits` is 2 for the paper's
  /// scheme or 3 for the §VIII MSB-1 variant.
  RadarScheme(const SchemeParams& params, int bits);

  int signature_bits() const { return sig_bits_; }

 protected:
  int prepare(const quant::QuantizedModel& qm) override;
  void words_into(const quant::QuantizedModel& qm, std::size_t layer,
                  std::int64_t group_begin, std::int64_t group_end,
                  ScanScratch& scratch) const override;
  std::uint32_t group_word(const quant::QuantizedModel& qm,
                           std::size_t layer, std::int64_t group,
                           ScanScratch& scratch) const override;

 private:
  int sig_bits_;
  std::vector<LayerScanner> scanners_;  ///< streaming scan tables
};

}  // namespace radar::core
