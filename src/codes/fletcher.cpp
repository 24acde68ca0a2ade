#include "codes/fletcher.h"

#include "codes/row_fold.h"
#include "common/error.h"

namespace radar::codes {

std::uint32_t addition_checksum(std::span<const std::uint8_t> data,
                                int width) {
  RADAR_REQUIRE(width > 0 && width <= 32, "checksum width 1..32");
  const std::uint64_t mask =
      width == 32 ? 0xFFFFFFFFull : ((1ull << width) - 1ull);
  std::uint64_t sum = 0;
  for (const std::uint8_t b : data) sum = (sum + b) & mask;
  return static_cast<std::uint32_t>(sum);
}

std::uint16_t fletcher16(std::span<const std::uint8_t> data) {
  std::uint32_t a = 0, b = 0;
  for (const std::uint8_t byte : data) {
    a = (a + byte) % 255u;
    b = (b + a) % 255u;
  }
  return static_cast<std::uint16_t>((b << 8) | a);
}

std::uint16_t fletcher16_extend_zeros(std::uint16_t sum, std::int64_t zeros) {
  RADAR_REQUIRE(zeros >= 0, "negative zero count");
  const std::uint32_t a = sum & 0xFFu;
  const auto z = static_cast<std::uint32_t>(zeros % 255);
  const std::uint32_t b = ((sum >> 8) + z * a) % 255u;
  return static_cast<std::uint16_t>((b << 8) | a);
}

namespace {

// One Fletcher-16 step. Both sums stay below 255, so the mod 255 is one
// conditional subtract (a + byte <= 509, b + a <= 508).
inline void fletcher16_step(std::uint32_t& a, std::uint32_t& b,
                            std::uint32_t byte) {
  a += byte;
  if (a >= 255u) a -= 255u;
  b += a;
  if (b >= 255u) b -= 255u;
}

/// Folds R rows into n states.
template <std::size_t R>
void fletcher16_fold_rows(std::uint32_t* st, std::size_t n,
                          const std::uint8_t* const* rows) {
  const std::uint8_t* d[R] = {};
  for (std::size_t r = 0; r < R; ++r) d[r] = rows[r];
  for (std::size_t k = 0; k < n; ++k) {
    std::uint32_t a = st[k] & 0xFFFFu, b = st[k] >> 16;
    for (std::size_t r = 0; r < R; ++r) fletcher16_step(a, b, d[r][k]);
    st[k] = (b << 16) | a;
  }
}

}  // namespace

void fletcher16_fold(std::span<std::uint32_t> states,
                     std::span<const std::uint8_t* const> rows) {
  std::uint32_t* st = states.data();
  const std::size_t n = states.size();
  for_each_row_run(
      rows,
      [&](std::size_t j) {
        fletcher16_fold_rows<kFusedRows>(st, n, rows.data() + j);
      },
      [&](std::size_t j) { fletcher16_fold_rows<1>(st, n, rows.data() + j); });
}

std::uint32_t fletcher32(std::span<const std::uint8_t> data) {
  std::uint32_t a = 0, b = 0;
  std::size_t i = 0;
  while (i < data.size()) {
    std::uint32_t word = data[i];
    if (i + 1 < data.size()) word |= static_cast<std::uint32_t>(data[i + 1])
                                     << 8;
    i += 2;
    a = (a + word) % 65535u;
    b = (b + a) % 65535u;
  }
  return (b << 16) | a;
}

}  // namespace radar::codes
