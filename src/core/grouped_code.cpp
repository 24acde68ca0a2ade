#include "core/grouped_code.h"

#include <ranges>

#include "codes/crc.h"
#include "codes/fletcher.h"
#include "codes/hamming.h"

namespace radar::core {

namespace {

class CrcBlockCode : public BlockCode {
 public:
  explicit CrcBlockCode(const codes::CrcSpec& spec) : crc_(spec) {}
  int code_bits() const override { return crc_.storage_bits(); }
  std::uint32_t compute(std::span<const std::int8_t> block) const override {
    return crc_.compute_i8(block);
  }

 private:
  codes::Crc crc_;
};

class Fletcher16BlockCode : public BlockCode {
 public:
  int code_bits() const override { return 16; }
  std::uint32_t compute(std::span<const std::int8_t> block) const override {
    return codes::fletcher16(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(block.data()), block.size()));
  }
};

class HammingBlockCode : public BlockCode {
 public:
  explicit HammingBlockCode(std::int64_t group_size)
      : code_(group_size * 8) {}
  int code_bits() const override { return code_.storage_bits(); }
  std::uint32_t compute(std::span<const std::int8_t> block) const override {
    return code_.encode_i8(block);
  }

 private:
  codes::HammingSecDed code_;
};

/// Gather `group` of a layer's codes `q` into `block` (group_size bytes);
/// padding slots become zero.
void gather(std::span<const std::int8_t> q, const GroupLayout& layout,
            std::int64_t group, std::span<std::int8_t> block) {
  layout.for_each_member(group, [&](std::int64_t slot, std::int64_t i) {
    block[static_cast<std::size_t>(slot)] =
        i >= 0 ? q[static_cast<std::size_t>(i)] : std::int8_t{0};
  });
}

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
  return [spec](std::int64_t) { return std::make_unique<CrcBlockCode>(spec); };
}

BlockCodeFactory fletcher16_block_code() {
  return [](std::int64_t) { return std::make_unique<Fletcher16BlockCode>(); };
}

BlockCodeFactory hamming_secded_block_code() {
  return [](std::int64_t group_size) {
    return std::make_unique<HammingBlockCode>(group_size);
  };
}

GroupedCodeScheme::GroupedCodeScheme(std::string id,
                                     const SchemeParams& params,
                                     BlockCodeFactory make_code)
    : SchemeBase(std::move(id), params), make_code_(std::move(make_code)) {
  RADAR_REQUIRE(make_code_ != nullptr, "null block code factory");
}

void GroupedCodeScheme::attach(const quant::QuantizedModel& qm, bool sign) {
  attach_layouts(qm);
  code_ = make_code_(params_.group_size);
  golden_.clear();
  for (const auto& layout : layouts_)
    golden_.emplace_back(layout.num_groups(), code_->code_bits());
  if (sign) resign(qm);
}

void GroupedCodeScheme::require_attached_to(
    const quant::QuantizedModel& qm) const {
  RADAR_REQUIRE(attached(), "scan before attach");
  RADAR_REQUIRE(layouts_.size() == qm.num_layers(),
                "scheme not attached to this model");
}

template <class Groups>
void GroupedCodeScheme::scan_groups(const quant::QuantizedModel& qm,
                                    std::size_t layer, const Groups& groups,
                                    std::vector<std::int64_t>& flagged,
                                    ScanScratch& scratch) const {
  const GroupLayout& layout = layouts_[layer];
  const PackedWordStore& golden = golden_[layer];
  const std::span<const std::int8_t> q = qm.layer(layer).q;
  scratch.block.resize(static_cast<std::size_t>(layout.group_size()));
  const std::span<std::int8_t> block(scratch.block);
  flagged.clear();
  for (const std::int64_t g : groups) {
    gather(q, layout, g, block);
    if (code_->compute(block) != golden.get(g)) flagged.push_back(g);
  }
}

void GroupedCodeScheme::scan_layer_into(const quant::QuantizedModel& qm,
                                        std::size_t layer,
                                        std::vector<std::int64_t>& flagged,
                                        ScanScratch& scratch) const {
  require_attached_to(qm);
  scan_groups(qm, layer,
              std::views::iota(std::int64_t{0}, layouts_[layer].num_groups()),
              flagged, scratch);
}

void GroupedCodeScheme::scan_layer_groups(const quant::QuantizedModel& qm,
                                          std::size_t layer,
                                          std::span<const std::int64_t> groups,
                                          std::vector<std::int64_t>& flagged,
                                          ScanScratch& scratch) const {
  require_attached_to(qm);
  scan_groups(qm, layer, groups, flagged, scratch);
}

void GroupedCodeScheme::scan_layer_range_into(
    const quant::QuantizedModel& qm, std::size_t layer,
    std::int64_t group_begin, std::int64_t group_end,
    std::vector<std::int64_t>& flagged, ScanScratch& scratch) const {
  require_attached_to(qm);
  RADAR_REQUIRE(layer < layouts_.size() && group_begin >= 0 &&
                    group_begin <= group_end &&
                    group_end <= layouts_[layer].num_groups(),
                "group range out of bounds");
  // Block codes pay per gathered group either way, so a range scan is the
  // full-scan loop bounded to [group_begin, group_end).
  scan_groups(qm, layer, std::views::iota(group_begin, group_end), flagged,
              scratch);
}

void GroupedCodeScheme::resign_layer(const quant::QuantizedModel& qm,
                                     std::size_t layer) {
  RADAR_REQUIRE(layouts_.size() == qm.num_layers(),
                "scheme not attached to this model");
  RADAR_REQUIRE(layer < layouts_.size(), "layer out of range");
  const GroupLayout& layout = layouts_[layer];
  const std::span<const std::int8_t> q = qm.layer(layer).q;
  std::vector<std::int8_t> block(static_cast<std::size_t>(layout.group_size()));
  for (std::int64_t g = 0; g < layout.num_groups(); ++g) {
    gather(q, layout, g, block);
    golden_[layer].set(g, code_->compute(block));
  }
}

std::int64_t GroupedCodeScheme::signature_storage_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& store : golden_) bytes += store.storage_bytes();
  return bytes;
}

std::vector<std::vector<std::uint8_t>> GroupedCodeScheme::export_golden()
    const {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(golden_.size());
  for (const auto& store : golden_) out.push_back(store.packed());
  return out;
}

void GroupedCodeScheme::import_golden(
    std::vector<std::vector<std::uint8_t>> packed) {
  RADAR_REQUIRE(attached(), "import_golden before attach");
  RADAR_REQUIRE(packed.size() == golden_.size(),
                "golden layer count mismatch");
  for (std::size_t li = 0; li < golden_.size(); ++li)
    golden_[li].set_packed(std::move(packed[li]));
}

}  // namespace radar::core
