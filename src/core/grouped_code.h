// GroupedCodeScheme: the src/codes/ baselines as first-class
// IntegritySchemes.
//
// The adapter reuses the same GroupLayout plumbing as RadarScheme (so a
// CRC baseline can be interleaved and skewed exactly like the paper's
// groups) but its group word is a `width`-bit check word instead of a
// 2/3-bit signature: CRC-7/10/13/16 (Koopman & Chakravarty, DSN'04),
// Fletcher-16, and Hamming SEC-DED check words. A group's word is its
// code over a fixed group_size-byte block in slot order, padding slots
// reading as zero (mirroring the checksum's treatment of padding), so
// every group of a layer — the tail group included — uses the same code
// instance, which prepare() builds.
//
// The dense kernel (words_into, behind every range scan and re-sign pass)
// never gathers a group. A code word is a left fold of one 32-bit state
// per group over the group's slots, so an interleaved layer is folded by
// the shared row loop (core/row_pass.h), the same one radar's masked sums
// run on: eight rows per pass go to BlockCode::fold, each row's window of
// groups read in place or staged into ScanScratch when it wraps or
// reaches padding, and the states, also kept in ScanScratch, are a CRC
// register (one slicing-by-8 step per pass), a Hamming syndrome + parity,
// or the two Fletcher sums. No code keeps a table that grows with
// group_size. A contiguous group is a run of bytes and is coded in place;
// compute() reads a short tail group's missing slots as padding. The
// narrow rescan kernel (group_word) gathers one group through
// GroupLayout::for_each_member and calls BlockCode::compute, as radar's
// rescans walk the same members.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "core/integrity_scheme.h"

namespace radar::core {

/// One block code: a fixed-width check word over a group-sized block.
class BlockCode {
 public:
  virtual ~BlockCode() = default;
  /// Stored bits per group.
  virtual int code_bits() const = 0;
  /// Check word of one group block of up to group_size bytes; slots past
  /// the end of `block` are padding (zero), so a contiguous tail group is
  /// coded in place.
  virtual std::uint32_t compute(std::span<const std::int8_t> block)
      const = 0;
  /// Row-streaming form: a check word is a left fold of one 32-bit state
  /// per group, starting at 0, over the group's slots in order (padding
  /// slots are zero bytes). Advances every state in `state` by
  /// rows.size() consecutive slots, the first being `first_slot`:
  /// rows[j][k] is state[k]'s byte in slot first_slot + j.
  virtual void fold(std::span<std::uint32_t> state,
                    std::span<const std::uint8_t* const> rows,
                    std::int64_t first_slot) const = 0;
  /// Replaces each state, folded over all group_size slots, with its
  /// check word; that word equals compute() over the gathered block.
  virtual void finish(std::span<std::uint32_t> state) const = 0;
};

/// Factory: codes whose geometry depends on the group size (e.g. Hamming
/// parity width) are built once the size is known.
using BlockCodeFactory =
    std::function<std::unique_ptr<BlockCode>(std::int64_t group_size)>;

// Factories for the registered baselines.
BlockCodeFactory crc_block_code(int width);       ///< 7, 10, 13 or 16
BlockCodeFactory fletcher16_block_code();
BlockCodeFactory hamming_secded_block_code();

class GroupedCodeScheme : public IntegrityScheme {
 public:
  /// `id` is the registry name the scheme reports (and packages store).
  GroupedCodeScheme(std::string id, const SchemeParams& params,
                    BlockCodeFactory make_code);

  const BlockCode& code() const { return *code_; }

 protected:
  int prepare(const quant::QuantizedModel& qm) override;
  void words_into(const quant::QuantizedModel& qm, std::size_t layer,
                  std::int64_t group_begin, std::int64_t group_end,
                  ScanScratch& scratch) const override;
  std::uint32_t group_word(const quant::QuantizedModel& qm,
                           std::size_t layer, std::int64_t group,
                           ScanScratch& scratch) const override;

 private:
  BlockCodeFactory make_code_;
  std::unique_ptr<BlockCode> code_;  ///< built by prepare
};

}  // namespace radar::core
