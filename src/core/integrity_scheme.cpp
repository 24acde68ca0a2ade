#include "core/integrity_scheme.h"

#include <algorithm>

namespace radar::core {

bool DetectionReport::is_flagged(std::size_t layer,
                                 std::int64_t group) const {
  if (layer >= flagged.size()) return false;
  const auto& f = flagged[layer];
  return std::binary_search(f.begin(), f.end(), group);
}

IntegrityScheme::IntegrityScheme(std::string id, const SchemeParams& params)
    : id_(std::move(id)), params_(params) {
  RADAR_REQUIRE(params.group_size > 0, "group size must be positive");
}

void IntegrityScheme::attach(const quant::QuantizedModel& qm, bool sign) {
  layouts_.clear();
  clean_offsets_.clear();
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    const std::int64_t nw = qm.layer(li).size();
    layouts_.push_back(
        params_.interleave
            ? GroupLayout::interleaved(nw, params_.group_size, params_.skew)
            : GroupLayout::contiguous(nw, params_.group_size));
    const quant::ArenaLayer& al = qm.arena().layer(li);
    clean_offsets_.emplace_back(al.offset, al.size);
  }
  clean_size_bytes_ = qm.arena().size_bytes();
  clean_holder_.reset();
  if (defer_clean_capture_) {
    // The caller promised an external source (set_clean_source follows
    // immediately); skip the full-arena copy it would throw away.
    defer_clean_capture_ = false;
    clean_copy_ = {};
    clean_bytes_ = {};
  } else {
    clean_copy_.capture(qm.arena());
    clean_bytes_ = clean_copy_.bytes();
  }
  const int width = prepare(qm);
  golden_.clear();
  for (const GroupLayout& layout : layouts_)
    golden_.emplace_back(layout.num_groups(), width);
  if (sign) resign(qm);
}

void IntegrityScheme::require_layer(const quant::QuantizedModel& qm,
                                    std::size_t layer) const {
  RADAR_REQUIRE(attached(), "scan before attach");
  RADAR_REQUIRE(layouts_.size() == qm.num_layers(),
                "scheme not attached to this model");
  RADAR_REQUIRE(layer < layouts_.size(), "layer out of range");
}

void IntegrityScheme::set_clean_source(std::shared_ptr<const void> holder,
                                       std::span<const std::int8_t> bytes) {
  RADAR_REQUIRE(attached(), "set_clean_source before attach");
  RADAR_REQUIRE(holder != nullptr, "null clean-source holder");
  RADAR_REQUIRE(static_cast<std::int64_t>(bytes.size()) == clean_size_bytes_,
                "clean source does not match the attached arena size");
  clean_holder_ = std::move(holder);
  clean_bytes_ = bytes;
  clean_copy_ = {};  // drop the owned copy — the external source wins
}

std::vector<std::int64_t> IntegrityScheme::scan_layer(
    const quant::QuantizedModel& qm, std::size_t layer) const {
  std::vector<std::int64_t> flagged;
  ScanScratch scratch;
  scan_layer_into(qm, layer, flagged, scratch);
  return flagged;
}

DetectionReport IntegrityScheme::scan(const quant::QuantizedModel& qm) const {
  RADAR_REQUIRE(layouts_.size() == qm.num_layers(),
                "scheme not attached to this model");
  DetectionReport report;
  report.flagged.resize(qm.num_layers());
  ScanScratch scratch;  // one working set for every layer
  for (std::size_t li = 0; li < qm.num_layers(); ++li)
    scan_layer_into(qm, li, report.flagged[li], scratch);
  return report;
}

void IntegrityScheme::scan_layer_range_into(
    const quant::QuantizedModel& qm, std::size_t layer,
    std::int64_t group_begin, std::int64_t group_end,
    std::vector<std::int64_t>& flagged, ScanScratch& scratch) const {
  require_layer(qm, layer);
  RADAR_REQUIRE(group_begin >= 0 && group_begin <= group_end &&
                    group_end <= layouts_[layer].num_groups(),
                "group range out of bounds");
  words_into(qm, layer, group_begin, group_end, scratch);
  flagged.clear();
  golden_[layer].append_mismatches(group_begin, scratch.state, flagged);
}

void IntegrityScheme::scan_layer_groups(const quant::QuantizedModel& qm,
                                        std::size_t layer,
                                        std::span<const std::int64_t> groups,
                                        std::vector<std::int64_t>& flagged,
                                        ScanScratch& scratch) const {
  require_layer(qm, layer);
  const PackedWordStore& golden = golden_[layer];
  flagged.clear();
  for (const std::int64_t g : groups)
    if (group_word(qm, layer, g, scratch) != golden.get(g))
      flagged.push_back(g);
}

void IntegrityScheme::recover(quant::QuantizedModel& qm,
                              const DetectionReport& report,
                              RecoveryPolicy policy) const {
  RADAR_REQUIRE(report.flagged.size() == qm.num_layers(),
                "report does not match model");
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    const GroupLayout& layout = layouts_[li];
    // Resolve the clean copy only when this policy actually reads it —
    // zero-out recovery must work on schemes with no clean source (e.g.
    // deferred capture that never got set_clean_source).
    const std::span<const std::int8_t> clean =
        (policy == RecoveryPolicy::kReloadClean &&
         !report.flagged[li].empty())
            ? clean_span(li)
            : std::span<const std::int8_t>{};
    for (const std::int64_t g : report.flagged[li]) {
      // Walk slots directly — group_members() would allocate per group.
      layout.for_each_member(g, [&](std::int64_t, std::int64_t idx) {
        if (idx < 0) return;
        switch (policy) {
          case RecoveryPolicy::kZeroOut:
            qm.set_code(li, idx, 0);
            break;
          case RecoveryPolicy::kReloadClean:
            qm.set_code(li, idx, clean[static_cast<std::size_t>(idx)]);
            break;
        }
      });
    }
  }
}

void IntegrityScheme::resign(const quant::QuantizedModel& qm) {
  RADAR_REQUIRE(layouts_.size() == qm.num_layers(),
                "scheme not attached to this model");
  for (std::size_t li = 0; li < qm.num_layers(); ++li) resign_layer(qm, li);
}

void IntegrityScheme::resign_layer(const quant::QuantizedModel& qm,
                                   std::size_t layer) {
  require_layer(qm, layer);
  ScanScratch scratch;
  words_into(qm, layer, 0, layouts_[layer].num_groups(), scratch);
  for (std::size_t g = 0; g < scratch.state.size(); ++g)
    golden_[layer].set(static_cast<std::int64_t>(g), scratch.state[g]);
}

std::int64_t IntegrityScheme::signature_storage_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& store : golden_) bytes += store.storage_bytes();
  return bytes;
}

std::int64_t IntegrityScheme::total_groups() const {
  std::int64_t n = 0;
  for (const auto& l : layouts_) n += l.num_groups();
  return n;
}

std::vector<std::vector<std::uint8_t>> IntegrityScheme::export_golden() const {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(golden_.size());
  for (const auto& store : golden_) out.push_back(store.packed());
  return out;
}

void IntegrityScheme::import_golden(
    std::vector<std::vector<std::uint8_t>> packed) {
  RADAR_REQUIRE(attached(), "import_golden before attach");
  RADAR_REQUIRE(packed.size() == golden_.size(),
                "golden layer count mismatch");
  for (std::size_t li = 0; li < golden_.size(); ++li)
    golden_[li].set_packed(std::move(packed[li]));
}

std::int64_t count_detected_flips(
    const IntegrityScheme& scheme, const DetectionReport& report,
    const std::vector<std::pair<std::size_t, std::int64_t>>& flips) {
  std::int64_t detected = 0;
  for (const auto& [layer, idx] : flips) {
    const std::int64_t group = scheme.layout(layer).group_of(idx);
    if (report.is_flagged(layer, group)) ++detected;
  }
  return detected;
}

}  // namespace radar::core
