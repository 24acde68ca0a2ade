// IntegrityScheme: the scheme-agnostic protection API.
//
// Every weight-integrity code in this repo — the paper's 2/3-bit RADAR
// group signatures as well as the CRC / Fletcher / Hamming baselines it is
// compared against (Table V) — plugs into the run-time path through this
// class: attach to a quantized model, scan (whole model or one layer),
// recover flagged groups, re-sign after authorized updates, and round-trip
// the golden codes through a deployment package. The class owns what
// every grouped code shares: per-layer GroupLayouts, the clean snapshot
// backing kReloadClean recovery, and the layer loops of scan / recover /
// resign. A concrete scheme implements seven virtuals: attach, the dense
// range scan, the sparse dirty-group scan, per-layer re-signing, storage
// accounting and golden export / import. Every dense scan — one layer,
// the serial whole model, a ScanScheduler chunk — is a call of the range
// scan, so whole-layer scans and chunked sweeps run the same code. Each
// scheme's range scan computes the range's code words into
// ScanScratch::state and ends in one bulk golden compare
// (PackedWordStore::append_mismatches), which yields the flagged ids in
// ascending order.
// Concrete schemes are created by name through SchemeRegistry;
// whole-model scans in the run-time path go through ScanScheduler.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/interleave.h"
#include "core/mask.h"
#include "core/scan_scratch.h"
#include "quant/qmodel.h"

namespace radar::core {

/// Upper bounds every SchemeParams consumer (package loader, campaign
/// spec validation) enforces before building layouts: a corrupt or
/// hostile group size would otherwise drive the per-group slot loops
/// through astronomically many iterations.
constexpr std::int64_t kMaxGroupSize = std::int64_t{1} << 24;
constexpr std::int64_t kMaxSkew = std::int64_t{1} << 20;

/// Scheme-agnostic tunables, serialized into deployment packages. Fields a
/// scheme does not use (e.g. `expansion` for CRC) are carried but ignored.
struct SchemeParams {
  std::int64_t group_size = 512;
  bool interleave = true;
  std::int64_t skew = 3;          ///< paper uses an offset of 3
  MaskStream::Expansion expansion = MaskStream::Expansion::kPrf;
  std::uint64_t master_key = 0xC0FFEE5EC0DEULL;
};

/// What to do with a flagged group.
enum class RecoveryPolicy {
  kZeroOut,      ///< paper: set all weights of the group to zero
  kReloadClean,  ///< halt & reload a clean copy (costlier, exact)
};

/// Result of one scan over all layers.
struct DetectionReport {
  /// Flagged group ids per layer, sorted ascending.
  std::vector<std::vector<std::int64_t>> flagged;

  bool attack_detected() const {
    for (const auto& f : flagged)
      if (!f.empty()) return true;
    return false;
  }
  std::int64_t num_flagged_groups() const {
    std::int64_t n = 0;
    for (const auto& f : flagged) n += static_cast<std::int64_t>(f.size());
    return n;
  }
  bool is_flagged(std::size_t layer, std::int64_t group) const;
};

/// Runtime-polymorphic protection scheme. See the file comment for the
/// lifecycle; all scan/recover entry points require attach() first.
class IntegrityScheme {
 public:
  virtual ~IntegrityScheme() = default;
  // Moves keep clean_bytes_ valid (the owned snapshot's storage moves
  // with it); a copy would leave it pointing into the source's snapshot.
  IntegrityScheme(const IntegrityScheme&) = delete;
  IntegrityScheme& operator=(const IntegrityScheme&) = delete;
  IntegrityScheme(IntegrityScheme&&) = default;
  IntegrityScheme& operator=(IntegrityScheme&&) = default;

  /// Registry id this scheme was created under ("radar2", "crc13", ...).
  const std::string& id() const { return id_; }
  /// The parameters the scheme was built with (round-tripped by packages).
  const SchemeParams& params() const { return params_; }

  /// Build layouts / golden codes for `qm`; also snapshots the clean
  /// weights for the kReloadClean recovery policy. Pass `sign = false`
  /// when the golden codes will be replaced via import_golden() anyway
  /// (package loads), skipping one full code computation.
  virtual void attach(const quant::QuantizedModel& qm, bool sign = true) = 0;
  bool attached() const { return !layouts_.empty(); }
  std::size_t num_layers() const { return layouts_.size(); }
  const GroupLayout& layout(std::size_t layer) const {
    return layouts_.at(layer);
  }

  /// Recompute every group's code and compare with the golden ones.
  DetectionReport scan(const quant::QuantizedModel& qm) const;

  /// Scan a single layer (run-time per-layer embedding, §IV); returns the
  /// flagged group ids, sorted ascending.
  std::vector<std::int64_t> scan_layer(const quant::QuantizedModel& qm,
                                       std::size_t layer) const;

  /// Zero-allocation scan_layer: fills `flagged` (cleared first, capacity
  /// kept) using `scratch` for working memory — the range scan over every
  /// group of the layer.
  void scan_layer_into(const quant::QuantizedModel& qm, std::size_t layer,
                       std::vector<std::int64_t>& flagged,
                       ScanScratch& scratch) const {
    scan_layer_range_into(qm, layer, 0, layout(layer).num_groups(), flagged,
                          scratch);
  }

  /// Narrow scan: recheck only `groups` (sorted ascending, deduplicated)
  /// of one layer, filling `flagged` with the mismatching subset. When
  /// every group outside `groups` is known to still hold the weights the
  /// golden codes were computed from, the result equals scan_layer bit for
  /// bit at O(|groups| * G) cost — the incremental-scan primitive.
  virtual void scan_layer_groups(const quant::QuantizedModel& qm,
                                 std::size_t layer,
                                 std::span<const std::int64_t> groups,
                                 std::vector<std::int64_t>& flagged,
                                 ScanScratch& scratch) const = 0;

  /// Range scan: recompute only groups [group_begin, group_end) of one
  /// layer, filling `flagged` (cleared first) with the mismatching ids in
  /// that range, at cost proportional to the bytes the range covers. The
  /// one dense scan primitive: whole-layer and whole-model scans are this
  /// call over [0, num_groups), and ScanScheduler chunks are slices of it.
  virtual void scan_layer_range_into(const quant::QuantizedModel& qm,
                                     std::size_t layer,
                                     std::int64_t group_begin,
                                     std::int64_t group_end,
                                     std::vector<std::int64_t>& flagged,
                                     ScanScratch& scratch) const = 0;

  /// Apply recovery to every flagged group.
  void recover(quant::QuantizedModel& qm, const DetectionReport& report,
               RecoveryPolicy policy = RecoveryPolicy::kZeroOut) const;

  /// Recompute golden codes (after an authorized weight update).
  void resign(const quant::QuantizedModel& qm);
  /// Recompute golden codes of a single layer only.
  virtual void resign_layer(const quant::QuantizedModel& qm,
                            std::size_t layer) = 0;

  /// Total golden-code bytes across layers (paper Fig. 6 x-axis).
  virtual std::int64_t signature_storage_bytes() const = 0;
  /// Codes recomputed in one scan (equals total group count).
  std::int64_t total_groups() const;

  /// Export the packed golden codes (deployment artifact payload).
  virtual std::vector<std::vector<std::uint8_t>> export_golden() const = 0;
  /// Replace the golden codes with previously exported ones (e.g. loaded
  /// from a signed package). A subsequent scan then reveals any weight
  /// tampering that happened since the export.
  virtual void import_golden(
      std::vector<std::vector<std::uint8_t>> packed) = 0;

  /// Replace the clean weight copy backing kReloadClean recovery with an
  /// external arena blob — typically a read-only mmap of a deployment
  /// package's weight arena, making the golden copy zero-copy. `bytes`
  /// must have the attached model's arena geometry (same blob size and
  /// layer offsets); `holder` keeps the backing storage (file mapping)
  /// alive for the scheme's lifetime. The scheme trusts `bytes` for its
  /// whole lifetime: a file-backed source must stay immutable after
  /// installation (mappings track page-cache writes), so external
  /// sources belong on read-only provisioned storage.
  void set_clean_source(std::shared_ptr<const void> holder,
                        std::span<const std::int8_t> bytes);

  /// Whole-arena view of the clean (golden) weight bytes backing
  /// kReloadClean — the owned attach-time snapshot or the external
  /// (mmap'd) source. Empty when no clean source is available. Lets a
  /// host byte-compare the live arena against the golden copy, catching
  /// corruption the scheme's codes cannot see (e.g. non-MSB flips under
  /// a 2-bit MSB signature).
  std::span<const std::int8_t> clean_arena_bytes() const {
    return clean_bytes_;
  }

  /// One-shot: tell the NEXT attach() not to capture the owned clean
  /// copy because the caller will install an external source via
  /// set_clean_source immediately afterwards (the package-mmap load
  /// path; skips one full-arena allocation + memcpy). Until that source
  /// arrives, kReloadClean recovery of a flagged group is rejected.
  void defer_clean_capture() { defer_clean_capture_ = true; }

 protected:
  IntegrityScheme(std::string id, const SchemeParams& params);

  /// Rebuild layouts_ for every layer of `qm` and capture the clean
  /// weight copy (one arena memcpy).
  void attach_layouts(const quant::QuantizedModel& qm);

  /// Clean codes of layer `layer` (owned snapshot or external source).
  std::span<const std::int8_t> clean_span(std::size_t layer) const {
    RADAR_REQUIRE(!clean_bytes_.empty(),
                  "no clean weight source (deferred capture without "
                  "set_clean_source)");
    return clean_bytes_.subspan(
        static_cast<std::size_t>(clean_offsets_.at(layer).first),
        static_cast<std::size_t>(clean_offsets_.at(layer).second));
  }

  std::string id_;
  SchemeParams params_;
  std::vector<GroupLayout> layouts_;
  /// Per-layer (byte offset, size) into clean_bytes_ — the attached
  /// model's arena geometry.
  std::vector<std::pair<std::int64_t, std::int64_t>> clean_offsets_;
  std::int64_t clean_size_bytes_ = 0;
  quant::ArenaSnapshot clean_copy_;           ///< owned (attach path)
  std::shared_ptr<const void> clean_holder_;  ///< external lifetime (mmap)
  std::span<const std::int8_t> clean_bytes_;  ///< active whole-arena view
  bool defer_clean_capture_ = false;          ///< one-shot attach hint
};

/// Number of attack flips that land in groups flagged by `report` — the
/// paper's "detected bit-flips out of N" metric. Flips are (layer, index)
/// pairs.
std::int64_t count_detected_flips(
    const IntegrityScheme& scheme, const DetectionReport& report,
    const std::vector<std::pair<std::size_t, std::int64_t>>& flips);

}  // namespace radar::core
