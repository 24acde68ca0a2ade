// GroupedCodeScheme: the src/codes/ baselines as first-class
// IntegritySchemes.
//
// The adapter reuses the same GroupLayout plumbing as RadarScheme (so a
// CRC baseline can be interleaved and skewed exactly like the paper's
// groups) but stores one `width`-bit code word per group instead of a
// 2/3-bit signature: CRC-7/10/13/16 (Koopman & Chakravarty, DSN'04),
// Fletcher-16, and Hamming SEC-DED check words. Groups are gathered into a
// fixed group_size-byte block (padding slots are zero, mirroring the
// checksum's treatment of padding), so every group of a layer — including
// the tail group — uses the same code instance.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "core/integrity_scheme.h"
#include "core/signature_store.h"

namespace radar::core {

/// One block code: a fixed-width check word over a group-sized block.
class BlockCode {
 public:
  virtual ~BlockCode() = default;
  /// Stored bits per group.
  virtual int code_bits() const = 0;
  /// Check word of one gathered group block.
  virtual std::uint32_t compute(std::span<const std::int8_t> block)
      const = 0;
};

/// Factory: codes whose geometry depends on the group size (e.g. Hamming
/// parity width) are built once the size is known.
using BlockCodeFactory =
    std::function<std::unique_ptr<BlockCode>(std::int64_t group_size)>;

// Factories for the registered baselines.
BlockCodeFactory crc_block_code(int width);       ///< 7, 10, 13 or 16
BlockCodeFactory fletcher16_block_code();
BlockCodeFactory hamming_secded_block_code();

class GroupedCodeScheme : public SchemeBase {
 public:
  /// `id` is the registry name the scheme reports (and packages store).
  GroupedCodeScheme(std::string id, const SchemeParams& params,
                    BlockCodeFactory make_code);

  const BlockCode& code() const { return *code_; }

  void attach(const quant::QuantizedModel& qm, bool sign = true) override;
  void scan_layer_into(const quant::QuantizedModel& qm, std::size_t layer,
                       std::vector<std::int64_t>& flagged,
                       ScanScratch& scratch) const override;
  void scan_layer_groups(const quant::QuantizedModel& qm, std::size_t layer,
                         std::span<const std::int64_t> groups,
                         std::vector<std::int64_t>& flagged,
                         ScanScratch& scratch) const override;
  void scan_layer_range_into(const quant::QuantizedModel& qm,
                             std::size_t layer, std::int64_t group_begin,
                             std::int64_t group_end,
                             std::vector<std::int64_t>& flagged,
                             ScanScratch& scratch) const override;
  bool supports_range_scan() const override { return true; }
  void resign_layer(const quant::QuantizedModel& qm,
                    std::size_t layer) override;
  std::int64_t signature_storage_bytes() const override;
  std::vector<std::vector<std::uint8_t>> export_golden() const override;
  void import_golden(std::vector<std::vector<std::uint8_t>> packed) override;

 private:
  void require_attached_to(const quant::QuantizedModel& qm) const;
  /// The one scan loop: gather, compute and compare each group of
  /// `groups` (any range of group ids), appending mismatches to `flagged`.
  template <class Groups>
  void scan_groups(const quant::QuantizedModel& qm, std::size_t layer,
                   const Groups& groups, std::vector<std::int64_t>& flagged,
                   ScanScratch& scratch) const;

  BlockCodeFactory make_code_;
  std::unique_ptr<BlockCode> code_;  ///< built on attach
  std::vector<PackedWordStore> golden_;
};

}  // namespace radar::core
