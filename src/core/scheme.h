// RadarScheme: the paper's detection + recovery pipeline as one
// IntegrityScheme implementation (registry ids "radar2" / "radar3").
//
// attach() derives per-layer group layouts, per-layer 16-bit mask keys and
// golden signatures from a quantized model; scan() recomputes signatures
// over the (possibly corrupted) int8 buffers and reports mismatching
// groups; recover() applies the paper's zero-out policy (or restores a
// clean copy, modeling the halt-and-reload alternative).
#pragma once

#include <cstdint>
#include <vector>

#include "core/integrity_scheme.h"
#include "core/mask.h"
#include "core/scanner.h"
#include "core/signature_store.h"

namespace radar::core {

/// Tunable parameters of the scheme (paper defaults). The grouping fields
/// mirror SchemeParams; signature_bits picks the 2-bit scheme or the §VIII
/// 3-bit MSB-1 variant.
struct RadarConfig {
  std::int64_t group_size = 512;
  bool interleave = true;
  std::int64_t skew = 3;          ///< paper uses an offset of 3
  int signature_bits = 2;         ///< 3 enables the §VIII MSB-1 variant
  MaskStream::Expansion expansion = MaskStream::Expansion::kPrf;
  std::uint64_t master_key = 0xC0FFEE5EC0DEULL;

  static RadarConfig from_params(const SchemeParams& p, int bits);
  SchemeParams to_params() const;
};

class RadarScheme : public IntegrityScheme {
 public:
  explicit RadarScheme(const RadarConfig& cfg);
  /// Registry-factory form: grouping from `params`, width from `bits`.
  RadarScheme(const SchemeParams& params, int bits)
      : RadarScheme(RadarConfig::from_params(params, bits)) {}

  int signature_bits() const { return sig_bits_; }

  void attach(const quant::QuantizedModel& qm, bool sign = true) override;
  void scan_layer_groups(const quant::QuantizedModel& qm, std::size_t layer,
                         std::span<const std::int64_t> groups,
                         std::vector<std::int64_t>& flagged,
                         ScanScratch& scratch) const override;
  void scan_layer_range_into(const quant::QuantizedModel& qm,
                             std::size_t layer, std::int64_t group_begin,
                             std::int64_t group_end,
                             std::vector<std::int64_t>& flagged,
                             ScanScratch& scratch) const override;
  void resign_layer(const quant::QuantizedModel& qm,
                    std::size_t layer) override;
  std::int64_t signature_storage_bytes() const override;
  std::vector<std::vector<std::uint8_t>> export_golden() const override;
  void import_golden(std::vector<std::vector<std::uint8_t>> packed) override;

 private:
  int sig_bits_;  ///< grouping/key fields live in IntegrityScheme::params_
  std::vector<LayerScanner> scanners_;  ///< streaming scan tables
  std::vector<SignatureStore> golden_;
};

}  // namespace radar::core
