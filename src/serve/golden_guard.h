// GoldenGuard: integrity sidecar over a tenant's mmap'd golden copy.
//
// The v3 mmap path makes kReloadClean recovery zero-copy, but it also
// means the "clean" bytes live in the page cache backed by a file the
// process does not control: storage bitrot, a torn write by an external
// tool, or an eviction+refault after on-disk corruption silently turn
// the recovery source itself into an attack vector — recovery would then
// *install* corrupt weights with full confidence.
//
// At tenant load the guard snapshots per-range CRC-32s of the verified
// golden bytes (range granularity trades sidecar size against
// verification cost per recovery). Before any recovery trusts a mapped
// range, verify_range() recomputes the CRCs over the live mapping; a
// mismatch (or an armed `golden.torn_read` chaos fire) tells the host to
// fall back to the in-memory ArenaSnapshot and mark the tenant degraded
// until a fresh mapping re-verifies end-to-end.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "codes/crc.h"

namespace radar::serve {

class GoldenGuard {
 public:
  /// Snapshot per-range CRCs over `golden` (the verified bytes at load).
  /// `range_bytes` must be positive; the final range may be short.
  void build(std::span<const std::int8_t> golden, std::int64_t range_bytes);

  bool built() const { return range_bytes_ > 0; }
  std::int64_t range_bytes() const { return range_bytes_; }
  std::size_t num_ranges() const { return crcs_.size(); }

  /// Recompute CRCs over `bytes` for every range overlapping
  /// [begin, end) and compare against the sidecar. `bytes` must be the
  /// same length build() saw. Fires the `golden.torn_read` chaos point —
  /// an armed fire reports a mismatch without touching the bytes, which
  /// is how tests and CI script a torn page deterministically.
  bool verify_range(std::span<const std::int8_t> bytes, std::int64_t begin,
                    std::int64_t end);

  /// Whole-copy verification (the heal path after re-mapping).
  bool verify_all(std::span<const std::int8_t> bytes) {
    return verify_range(bytes, 0, total_bytes_);
  }

  std::uint64_t ranges_verified() const {
    return verified_.load(std::memory_order_relaxed);
  }
  std::uint64_t mismatches() const {
    return mismatches_.load(std::memory_order_relaxed);
  }

 private:
  std::int64_t range_bytes_ = 0;
  std::int64_t total_bytes_ = 0;
  /// CRC-32 engine, built once by build(): verify_range() computes under
  /// the SIGBUS guard, whose siglongjmp would skip the destructor (and
  /// leak the tables) of an engine constructed there.
  std::optional<codes::Crc> crc_;
  std::vector<std::uint32_t> crcs_;
  std::atomic<std::uint64_t> verified_{0};
  std::atomic<std::uint64_t> mismatches_{0};
};

}  // namespace radar::serve
