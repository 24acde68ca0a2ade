#include "core/grouped_code.h"

#include <algorithm>

#include "codes/crc.h"
#include "codes/fletcher.h"
#include "codes/hamming.h"
#include "codes/row_fold.h"
#include "core/row_pass.h"

namespace radar::core {

namespace {

const std::uint8_t* as_bytes(const std::int8_t* p) {
  return reinterpret_cast<const std::uint8_t*>(p);
}

/// A row pass is one fused step of every code's row fold.
static_assert(kPassRows == codes::kFusedRows);

/// Padding slots of a block of `block_size` bytes of a `group_size` group.
std::int64_t padding(std::int64_t group_size, std::size_t block_size) {
  const auto pad = group_size - static_cast<std::int64_t>(block_size);
  RADAR_REQUIRE(pad >= 0, "block larger than the group");
  return pad;
}

class CrcBlockCode : public BlockCode {
 public:
  CrcBlockCode(const codes::CrcSpec& spec, std::int64_t group_size)
      : crc_(spec), group_size_(group_size) {}
  int code_bits() const override { return crc_.storage_bits(); }
  std::uint32_t compute(std::span<const std::int8_t> block) const override {
    return crc_.extend_zeros(crc_.compute_i8(block),
                             padding(group_size_, block.size()));
  }
  void fold(std::span<std::uint32_t> state,
            std::span<const std::uint8_t* const> rows,
            std::int64_t /*first_slot*/) const override {
    crc_.fold(state, rows);
  }
  void finish(std::span<std::uint32_t> state) const override {
    for (std::uint32_t& x : state) x = crc_.finish(x);
  }

 private:
  codes::Crc crc_;
  std::int64_t group_size_;
};

class Fletcher16BlockCode : public BlockCode {
 public:
  explicit Fletcher16BlockCode(std::int64_t group_size)
      : group_size_(group_size) {}
  int code_bits() const override { return 16; }
  std::uint32_t compute(std::span<const std::int8_t> block) const override {
    return codes::fletcher16_extend_zeros(
        codes::fletcher16(std::span<const std::uint8_t>(
            as_bytes(block.data()), block.size())),
        padding(group_size_, block.size()));
  }
  void fold(std::span<std::uint32_t> state,
            std::span<const std::uint8_t* const> rows,
            std::int64_t /*first_slot*/) const override {
    codes::fletcher16_fold(state, rows);
  }
  void finish(std::span<std::uint32_t> state) const override {
    for (std::uint32_t& x : state) x = codes::fletcher16_finish(x);
  }

 private:
  std::int64_t group_size_;
};

class HammingBlockCode : public BlockCode {
 public:
  explicit HammingBlockCode(std::int64_t group_size)
      : code_(group_size * 8) {}
  int code_bits() const override { return code_.storage_bits(); }
  std::uint32_t compute(std::span<const std::int8_t> block) const override {
    // encode() reads bits past the end of the block as zero padding.
    RADAR_REQUIRE(static_cast<std::int64_t>(block.size()) * 8 <=
                      code_.data_bits(),
                  "block larger than the group");
    return code_.encode_i8(block);
  }
  void fold(std::span<std::uint32_t> state,
            std::span<const std::uint8_t* const> rows,
            std::int64_t first_slot) const override {
    codes::HammingSecDed::ByteTerms terms[kPassRows] = {};
    RADAR_REQUIRE(rows.size() <= std::size(terms), "too many rows per fold");
    for (std::size_t j = 0; j < rows.size(); ++j)
      terms[j] = code_.byte_terms(first_slot + static_cast<std::int64_t>(j));
    code_.fold(state, rows, terms);
  }
  void finish(std::span<std::uint32_t> state) const override {
    for (std::uint32_t& x : state) x = code_.finish(x);
  }

 private:
  codes::HammingSecDed code_;
};

}  // namespace

BlockCodeFactory crc_block_code(int width) {
  codes::CrcSpec spec;
  switch (width) {
    case 7:  spec = codes::CrcSpec::crc7(); break;
    case 10: spec = codes::CrcSpec::crc10(); break;
    case 13: spec = codes::CrcSpec::crc13(); break;
    case 16: spec = codes::CrcSpec::crc16_ccitt(); break;
    default:
      RADAR_REQUIRE(false, "no CRC preset of width " + std::to_string(width));
  }
  return [spec](std::int64_t group_size) {
    return std::make_unique<CrcBlockCode>(spec, group_size);
  };
}

BlockCodeFactory fletcher16_block_code() {
  return [](std::int64_t group_size) {
    return std::make_unique<Fletcher16BlockCode>(group_size);
  };
}

BlockCodeFactory hamming_secded_block_code() {
  return [](std::int64_t group_size) {
    return std::make_unique<HammingBlockCode>(group_size);
  };
}

GroupedCodeScheme::GroupedCodeScheme(std::string id,
                                     const SchemeParams& params,
                                     BlockCodeFactory make_code)
    : IntegrityScheme(std::move(id), params),
      make_code_(std::move(make_code)) {
  RADAR_REQUIRE(make_code_ != nullptr, "null block code factory");
}

int GroupedCodeScheme::prepare(const quant::QuantizedModel& /*qm*/) {
  code_ = make_code_(params_.group_size);
  return code_->code_bits();
}

void GroupedCodeScheme::words_into(const quant::QuantizedModel& qm,
                                   std::size_t layer,
                                   std::int64_t group_begin,
                                   std::int64_t group_end,
                                   ScanScratch& scratch) const {
  const GroupLayout& layout = layouts_[layer];
  const std::span<const std::int8_t> q = qm.layer(layer).q;
  const std::int64_t g = layout.group_size();
  const std::int64_t ng = layout.num_groups();
  const std::int64_t w = layout.num_weights();
  RADAR_REQUIRE(static_cast<std::int64_t>(q.size()) == w,
                "weight buffer size does not match layout");
  const std::int64_t m = group_end - group_begin;
  if (!layout.is_interleaved() || ng == 1) {
    // Contiguous groups (a one-group interleaved layout is the same
    // layout) are runs of bytes, coded in place; the tail group's missing
    // slots are the padding compute() supplies.
    scratch.state.resize(static_cast<std::size_t>(m));
    for (std::int64_t k = 0; k < m; ++k) {
      const std::int64_t base = (group_begin + k) * g;
      scratch.state[static_cast<std::size_t>(k)] =
          code_->compute(q.subspan(static_cast<std::size_t>(base),
                                   static_cast<std::size_t>(
                                       std::min(g, w - base))));
    }
    return;
  }
  scratch.state.assign(static_cast<std::size_t>(m), 0u);
  for_each_row_pass(
      layout, std::array{q.data()}, group_begin, group_end, scratch.block,
      [&](std::int64_t k0, std::int64_t n, const RowPass<1>& pass) {
        const std::uint8_t* rows[kPassRows];
        for (std::int64_t j = 0; j < pass.nrows; ++j)
          rows[j] = as_bytes(pass.rows[0][static_cast<std::size_t>(j)]);
        code_->fold({scratch.state.data() + k0, static_cast<std::size_t>(n)},
                    {rows, static_cast<std::size_t>(pass.nrows)},
                    pass.first_slot);
      });
  code_->finish(scratch.state);
}

std::uint32_t GroupedCodeScheme::group_word(const quant::QuantizedModel& qm,
                                            std::size_t layer,
                                            std::int64_t group,
                                            ScanScratch& scratch) const {
  // Gather the group into a group_size block; padding slots become zero.
  const std::span<const std::int8_t> q = qm.layer(layer).q;
  scratch.block.resize(static_cast<std::size_t>(params_.group_size));
  layouts_[layer].for_each_member(
      group, [&](std::int64_t slot, std::int64_t i) {
        scratch.block[static_cast<std::size_t>(slot)] =
            i >= 0 ? q[static_cast<std::size_t>(i)] : std::int8_t{0};
      });
  return code_->compute(scratch.block);
}

}  // namespace radar::core
