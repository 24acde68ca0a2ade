// IntegrityScheme: the scheme-agnostic protection API.
//
// Every weight-integrity code in this repo — the paper's 2/3-bit RADAR
// group signatures as well as the CRC / Fletcher / Hamming baselines it is
// compared against (Table V) — keeps one short code word per weight group
// in secure memory and, at run time, recomputes and compares it. So this
// class owns everything but the word itself: per-layer GroupLayouts, the
// golden words (one PackedWordStore per layer), the clean snapshot backing
// kReloadClean recovery, and the one scan, narrow rescan, re-sign, recover
// and golden export / import path. A concrete scheme is its word kernel,
// three protected hooks:
//   prepare     builds the per-layer kernel state for the layouts attach
//               just built and returns the stored word width;
//   words_into  the dense kernel: the words of a contiguous group range
//               of one layer into ScanScratch::state;
//   group_word  the word of one group, for narrow (dirty) rescans.
// Every dense scan — one layer, the serial whole model, a ScanScheduler
// chunk — is scan_layer_range_into: words_into, then one bulk golden
// compare (PackedWordStore::append_mismatches) that yields the flagged ids
// in ascending order. Re-signing stores the same words_into output, so a
// clean model always scans clean.
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
#include "core/signature_store.h"
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
  void attach(const quant::QuantizedModel& qm, bool sign = true);
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
  void scan_layer_groups(const quant::QuantizedModel& qm, std::size_t layer,
                         std::span<const std::int64_t> groups,
                         std::vector<std::int64_t>& flagged,
                         ScanScratch& scratch) const;

  /// Range scan: recompute only groups [group_begin, group_end) of one
  /// layer, filling `flagged` (cleared first) with the mismatching ids in
  /// that range, at cost proportional to the bytes the range covers. The
  /// one dense scan primitive: whole-layer and whole-model scans are this
  /// call over [0, num_groups), and ScanScheduler chunks are slices of it.
  void scan_layer_range_into(const quant::QuantizedModel& qm,
                             std::size_t layer, std::int64_t group_begin,
                             std::int64_t group_end,
                             std::vector<std::int64_t>& flagged,
                             ScanScratch& scratch) const;

  /// Apply recovery to every flagged group.
  void recover(quant::QuantizedModel& qm, const DetectionReport& report,
               RecoveryPolicy policy = RecoveryPolicy::kZeroOut) const;

  /// Recompute golden codes (after an authorized weight update).
  void resign(const quant::QuantizedModel& qm);
  /// Recompute golden codes of a single layer only.
  void resign_layer(const quant::QuantizedModel& qm, std::size_t layer);

  /// Total golden-code bytes across layers (paper Fig. 6 x-axis).
  std::int64_t signature_storage_bytes() const;
  /// Codes recomputed in one scan (equals total group count).
  std::int64_t total_groups() const;

  /// Export the packed golden codes (deployment artifact payload).
  std::vector<std::vector<std::uint8_t>> export_golden() const;
  /// Replace the golden codes with previously exported ones (e.g. loaded
  /// from a signed package). A subsequent scan then reveals any weight
  /// tampering that happened since the export.
  void import_golden(std::vector<std::vector<std::uint8_t>> packed);

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

  /// Build the scheme's per-layer kernel state for layouts_ (just rebuilt
  /// for `qm` by attach) and return the stored word width in bits.
  virtual int prepare(const quant::QuantizedModel& qm) = 0;
  /// The dense kernel: the words of groups [group_begin, group_end) of one
  /// layer, written to scratch.state[0 .. group_end - group_begin). The
  /// range is already checked against the layout.
  virtual void words_into(const quant::QuantizedModel& qm, std::size_t layer,
                          std::int64_t group_begin, std::int64_t group_end,
                          ScanScratch& scratch) const = 0;
  /// The word of one group, equal to its words_into word — the narrow
  /// rescan kernel, O(group_size).
  virtual std::uint32_t group_word(const quant::QuantizedModel& qm,
                                   std::size_t layer, std::int64_t group,
                                   ScanScratch& scratch) const = 0;

  std::string id_;
  SchemeParams params_;
  std::vector<GroupLayout> layouts_;

 private:
  std::vector<PackedWordStore> golden_;  ///< golden words, one per layer
  /// Per-layer (byte offset, size) into clean_bytes_ — the attached
  /// model's arena geometry.
  std::vector<std::pair<std::int64_t, std::int64_t>> clean_offsets_;
  std::int64_t clean_size_bytes_ = 0;
  quant::ArenaSnapshot clean_copy_;           ///< owned (attach path)
  std::shared_ptr<const void> clean_holder_;  ///< external lifetime (mmap)
  std::span<const std::int8_t> clean_bytes_;  ///< active whole-arena view
  bool defer_clean_capture_ = false;          ///< one-shot attach hint

  /// Clean codes of layer `layer` (owned snapshot or external source).
  std::span<const std::int8_t> clean_span(std::size_t layer) const {
    RADAR_REQUIRE(!clean_bytes_.empty(),
                  "no clean weight source (deferred capture without "
                  "set_clean_source)");
    return clean_bytes_.subspan(
        static_cast<std::size_t>(clean_offsets_.at(layer).first),
        static_cast<std::size_t>(clean_offsets_.at(layer).second));
  }

  /// Require that the scheme is attached to a model shaped like `qm` and
  /// that `layer` is one of its layers.
  void require_layer(const quant::QuantizedModel& qm,
                     std::size_t layer) const;
};

/// Number of attack flips that land in groups flagged by `report` — the
/// paper's "detected bit-flips out of N" metric. Flips are (layer, index)
/// pairs.
std::int64_t count_detected_flips(
    const IntegrityScheme& scheme, const DetectionReport& report,
    const std::vector<std::pair<std::size_t, std::int64_t>>& flips);

}  // namespace radar::core
