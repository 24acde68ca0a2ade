#include "serve/golden_guard.h"

#include <algorithm>

#include "common/error.h"
#include "common/fault_points.h"
#include "common/sigbus_guard.h"

namespace radar::serve {

void GoldenGuard::build(std::span<const std::int8_t> golden,
                        std::int64_t range_bytes) {
  RADAR_REQUIRE(range_bytes > 0, "GoldenGuard range_bytes must be > 0");
  range_bytes_ = range_bytes;
  total_bytes_ = static_cast<std::int64_t>(golden.size());
  crc_.emplace(codes::CrcSpec::crc32());
  crcs_.clear();
  for (std::int64_t b = 0; b < total_bytes_; b += range_bytes_) {
    const auto len = static_cast<std::size_t>(
        std::min(range_bytes_, total_bytes_ - b));
    crcs_.push_back(
        crc_->compute_i8(golden.subspan(static_cast<std::size_t>(b), len)));
  }
}

bool GoldenGuard::verify_range(std::span<const std::int8_t> bytes,
                               std::int64_t begin, std::int64_t end) {
  RADAR_REQUIRE(built(), "GoldenGuard::build before verify");
  RADAR_REQUIRE(static_cast<std::int64_t>(bytes.size()) == total_bytes_,
                "GoldenGuard byte length changed since build");
  begin = std::clamp<std::int64_t>(begin, 0, total_bytes_);
  end = std::clamp<std::int64_t>(end, begin, total_bytes_);
  if (chaos::fire(chaos::points::kGoldenTornRead)) {
    mismatches_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::size_t r0 = static_cast<std::size_t>(begin / range_bytes_);
  const std::size_t r1 = end == begin
                             ? r0
                             : static_cast<std::size_t>(
                                   (end - 1) / range_bytes_ + 1);
  for (std::size_t r = r0; r < r1 && r < crcs_.size(); ++r) {
    const std::int64_t b = static_cast<std::int64_t>(r) * range_bytes_;
    const auto len = static_cast<std::size_t>(
        std::min(range_bytes_, total_bytes_ - b));
    verified_.fetch_add(1, std::memory_order_relaxed);
    // The CRC touches pages of a file-backed mapping: a package file
    // truncated after mmap raises SIGBUS here. The guard turns that
    // into a mismatch, so the host degrades the tenant instead of the
    // whole daemon dying on one bad file.
    std::uint32_t crc = 0;
    const bool readable = with_sigbus_guard([&] {
      crc = crc_->compute_i8(bytes.subspan(static_cast<std::size_t>(b), len));
    });
    if (!readable || crc != crcs_[r]) {
      mismatches_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

}  // namespace radar::serve
