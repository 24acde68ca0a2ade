// Runtime SIMD capability detection and kernel-dispatch level selection.
//
// Every hot kernel in the repo (the masked-sum scan's rotated row
// segments, CRC slicing, snapshot compare, the int8 GEMM microkernels)
// keeps its portable scalar form as the bit-identical reference and
// registers explicitly vectorized variants in a small per-kernel
// function-pointer table indexed by SimdLevel. The active level is a
// process-wide atomic:
//
//   * detected once from cpuid (x86: AVX2, AVX-512 F/BW/VL, VNNI, with
//     the OS xsave check for ymm/zmm state) or the architecture (arm:
//     NEON), and
//   * overridable with RADAR_SIMD=scalar|neon|avx2|avx512|native for
//     differential testing and benchmarking — requesting a level the
//     machine cannot run silently clamps to the best supported one, so
//     a test matrix can set RADAR_SIMD=avx512 everywhere and still pass
//     on older hardware.
//
// Because all dispatched kernels accumulate in exact integer arithmetic,
// every level produces byte-identical results; the level only moves
// throughput. The differential test batteries run each available level
// against scalar to enforce that.
#pragma once

#include <string>

namespace radar::cpu {

/// Dispatch tiers, ordered by preference. kNeon only exists on arm,
/// kAvx2/kAvx512 only on x86; kScalar is supported everywhere.
enum class SimdLevel : int {
  kScalar = 0,
  kNeon = 1,    ///< aarch64 NEON (sdot where available)
  kAvx2 = 2,    ///< 256-bit integer SIMD
  kAvx512 = 3,  ///< AVX-512 F+BW+VL (VNNI used when present)
};

inline constexpr int kNumSimdLevels = 4;

/// Highest level this machine can execute (cpuid + xgetbv, cached).
SimdLevel detected_level();

/// True when `level` can execute on this machine.
bool level_supported(SimdLevel level);

/// True when AVX-512 VNNI (`vpdpbusd`) is available (implies kAvx512).
bool has_avx512_vnni();

/// The level kernels dispatch on right now. Initialized on first use
/// from RADAR_SIMD (unset or "native" selects detected_level()).
SimdLevel active_level();

/// Force a level; clamps to the best supported level <= the request
/// (falling back to kScalar when the requested tier does not exist on
/// this architecture). Returns the level actually installed.
SimdLevel set_active_level(SimdLevel level);

/// "scalar" / "neon" / "avx2" / "avx512".
const char* level_name(SimdLevel level);

/// Parse a RADAR_SIMD value; returns detected_level() for "native" /
/// unknown strings and the named level otherwise.
SimdLevel parse_level(const std::string& name);

/// RAII level override for differential tests: installs `level` (with
/// the usual clamping), restores the previous level on destruction.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(active_level()) {
    set_active_level(level);
  }
  ~ScopedSimdLevel() { set_active_level(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

}  // namespace radar::cpu
