// RadarPackage: the signed deployment artifact.
//
// Bundles everything a device needs to deploy a protected model: the int8
// weight arena with its layer table (name / byte offset / size / scale),
// the protection scheme's registry id and parameters (group size,
// interleave, skew, mask expansion — the master key itself is provisioned
// out of band), the golden codes, a CRC-32 of the weight payload and —
// from v4 on — the calibrated int8 engine program. Loading rebuilds the
// scheme by name through SchemeRegistry, re-derives codes from the
// (possibly tampered) weights and compares them against the stored golden
// set, so any modification of the weight payload since signing is
// localized to the affected groups — the offline analogue of the run-time
// scan.
//
// Layout (after the BinaryWriter magic + version header):
//
//   model_name                      free-form string
//   scheme                          id, group size, interleave, skew,
//                                   mask expansion, master key
//   u32 weights_crc                 CRC-32 over the layers' int8 payloads
//                                   (padding excluded); it covers the
//                                   weights only, not the whole file
//   u64 num_layers
//   v2: per layer  name, scale, int8 codes, golden codes
//   v3+: i64 arena_bytes
//        per layer  name, scale, size, offset      (the arena table)
//        per layer  golden codes
//        u32 pad, pad zero bytes                   (blob 64-byte aligned)
//        arena blob                                (arena_bytes bytes)
//   v4:  engine section bytes                      (runs to the trailer)
//        u64 section_bytes, u32 section_crc        (trailer at EOF)
//
// v3 stores the weights as one contiguous 64-byte-aligned arena blob (the
// exact WeightArena geometry): loading is a single blob copy, and the blob
// can instead be mmap'd read-only straight out of the file as the scheme's
// golden clean copy (kReloadClean recovery then reads from the page cache,
// zero-copy). v4 appends the engine section, protected by its own CRC-32:
// the qnn::EngineProgram compiled from the signed network and calibrated
// at sign time on the first kPackageCalibImages test images of the recipe
// dataset its spec names (data::model_recipe), so the model a host serves
// is the model that was signed — folded batch-norm constants, biases and
// activation scales included — and bring-up neither renders nor
// calibrates. The section is: i64 in_channels, num_classes, calib_images;
// u64 op count; per op u8 kind, u8 relu, i32 src, src2, dst, u64 layer,
// i64 in/out channels, kernel, stride, padding, in/out features, f32
// x_scale, then out_scale and out_bias as u64-length f32 vectors. Loading
// checks the CRC, every count against the bytes left, and the program
// against the layer table (qnn::program_defect) before anything runs it.
// v2 and v3 packages load and verify transparently; they carry no engine.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/integrity_scheme.h"
#include "qnn/engine.h"

namespace radar::core {

/// Package formats; v4 is written by default, v2 and v3 remain loadable.
constexpr std::uint32_t kPackageFormatV2 = 2;
constexpr std::uint32_t kPackageFormatV3 = 3;
constexpr std::uint32_t kPackageFormatV4 = 4;

/// Test images a v4 package's engine is calibrated on at sign time.
constexpr std::int64_t kPackageCalibImages = 64;

/// Metadata of a package on disk.
struct PackageInfo {
  std::string model_name;
  std::uint32_t format_version = kPackageFormatV4;
  std::int64_t total_weights = 0;
  std::int64_t arena_bytes = 0;  ///< blob size incl. padding (v3+; derived for v2)
  std::size_t num_layers = 0;
  std::string scheme_id = "radar2";  ///< SchemeRegistry id
  SchemeParams params;
  /// Per-layer arena table (for v2 files the offsets are the ones a
  /// freshly built arena would assign — the shared geometry rule).
  std::vector<quant::ArenaLayer> layers;
  /// v4: the signed, calibrated engine program, already checked against
  /// the layer table (no ops for v2/v3 packages).
  qnn::EngineProgram engine;
};

/// Result of a verified load.
struct PackageLoadReport {
  bool crc_ok = false;        ///< stored CRC-32 of the weight payload
  bool signatures_ok = false; ///< every group matches its golden code
  bool golden_mmapped = false;  ///< clean copy served from the file mapping
  DetectionReport tamper;     ///< flagged groups when signatures_ok == false
  PackageInfo info;

  bool verified() const { return crc_ok && signatures_ok; }
};

/// Knobs of load_package.
struct PackageLoadOptions {
  std::size_t threads = 1;  ///< verify-scan workers (0 = hardware)
  /// Map the package's arena blob read-only and install it as the
  /// scheme's kReloadClean golden copy (v3+ packages on platforms with
  /// mmap; silently falls back to the owned copy elsewhere). The mapped
  /// bytes are compared against the verified blob at load time, but a
  /// MAP_PRIVATE mapping tracks later writes to the file's page cache —
  /// the deployment contract is that the package lives on immutable
  /// (read-only provisioned) storage for as long as the scheme is live.
  /// On writable paths, leave this off and keep the owned clean copy.
  bool mmap_golden = false;
};

/// Write the deployment package for a quantized model protected by an
/// attached scheme. `model_name` is free-form metadata. `version` selects
/// the format (v4 default; v2/v3 kept for migration tooling and tests).
/// A v4 save writes `engine` when given (re-saving a loaded package keeps
/// its signed program); otherwise it compiles the program from `qm`'s
/// network and calibrates it on the first kPackageCalibImages test images
/// of the recipe dataset named by the network spec ("tiny", "resnet20",
/// "resnet18"; any other name throws InvalidArgument). Writes are
/// crash-safe (see BinaryWriter): the path holds the previous package
/// until the new one is complete.
void save_package(const std::string& path, const quant::QuantizedModel& qm,
                  const IntegrityScheme& scheme,
                  const std::string& model_name,
                  std::uint32_t version = kPackageFormatV4,
                  const qnn::EngineProgram* engine = nullptr);

/// Read metadata only (no model required), the v4 engine program
/// included. Accepts v2, v3 and v4.
PackageInfo read_package_info(const std::string& path);

/// A read-only mapping of a v3+ package's arena blob. `holder` keeps the
/// pages alive; `bytes` is empty when the mapping was not possible.
struct MappedArena {
  std::shared_ptr<const void> holder;
  std::span<const std::int8_t> bytes;
  bool ok() const { return !bytes.empty(); }
};

/// Re-open a v3+ package and map its arena blob read-only — the serve
/// layer's golden-copy *heal* path after a degraded mapping. Returns an
/// empty MappedArena (never throws) when the file is unreadable,
/// corrupt, v2, unaligned, or the platform lacks mmap. The bytes are NOT
/// verified here; callers must check them (CRC sidecar, signature scan)
/// before trusting them as a clean source.
MappedArena map_package_arena(const std::string& path);

/// Load the package into `qm` (must have the same layer structure),
/// rebuild the stored scheme via SchemeRegistry into `scheme` (replacing
/// whatever it held) with the stored golden codes, then verify. The scan
/// fans out over `opts.threads` workers (1 = serial; 0 = hardware
/// concurrency). Tampered groups are reported, not repaired — callers
/// decide between zero-out recovery and rejecting the artifact.
PackageLoadReport load_package(const std::string& path,
                               quant::QuantizedModel& qm,
                               std::unique_ptr<IntegrityScheme>& scheme,
                               const PackageLoadOptions& opts);
PackageLoadReport load_package(const std::string& path,
                               quant::QuantizedModel& qm,
                               std::unique_ptr<IntegrityScheme>& scheme,
                               std::size_t threads = 1);

/// Arena-only load: build `qm` (replacing whatever it held) as a
/// network-less QuantizedModel from the package's own layer table, then
/// load and verify into it as above — one read of the file, no float
/// network, no float mirror. The table must follow the shared geometry
/// rule (WeightArena::build), as every package written by save_package
/// does.
PackageLoadReport load_package(const std::string& path,
                               std::unique_ptr<quant::QuantizedModel>& qm,
                               std::unique_ptr<IntegrityScheme>& scheme,
                               const PackageLoadOptions& opts);

}  // namespace radar::core
