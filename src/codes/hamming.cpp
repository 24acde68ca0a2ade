#include "codes/hamming.h"

#include "common/bits.h"
#include "common/error.h"

namespace radar::codes {

int HammingSecDed::parity_bits_for(std::int64_t data_bits) {
  RADAR_REQUIRE(data_bits > 0, "need at least one data bit");
  int r = 0;
  while ((1LL << r) < data_bits + r + 1) ++r;
  return r;
}

HammingSecDed::HammingSecDed(std::int64_t data_bits)
    : data_bits_(data_bits), parity_bits_(parity_bits_for(data_bits)) {
  RADAR_REQUIRE(parity_bits_ <= 31, "block too large");
}

std::uint32_t HammingSecDed::syndrome_and_parity(
    std::span<const std::uint8_t> data, bool& overall) const {
  std::uint32_t syndrome = 0;
  bool parity = false;
  // Data bit i sits at the (i+1)-th 1-based codeword position that is not
  // a power of two (those hold parity): 3, 5, 6, 7, 9, ... The position
  // advances by one per bit and skips a power of two when it lands on one;
  // the next position after a power of two >= 4 never is one.
  std::int64_t pos = 2;
  for (std::int64_t i = 0; i < data_bits_; ++i) {
    ++pos;
    if ((pos & (pos - 1)) == 0) ++pos;
    if (!data_bit(data, i)) continue;
    syndrome ^= static_cast<std::uint32_t>(pos);
    parity = !parity;
  }
  overall = parity;
  return syndrome;
}

std::uint32_t HammingSecDed::encode(std::span<const std::uint8_t> data) const {
  RADAR_REQUIRE(static_cast<std::int64_t>(data.size()) * 8 >= data_bits_,
                "data buffer too small");
  bool overall = false;
  const std::uint32_t syndrome = syndrome_and_parity(data, overall);
  // Stored parity bits are chosen so a clean word has syndrome zero; the
  // syndrome of data alone *is* that parity vector. Overall parity covers
  // data + parity bits.
  bool total = overall;
  for (int b = 0; b < parity_bits_; ++b)
    if ((syndrome >> b) & 1u) total = !total;
  return syndrome | (static_cast<std::uint32_t>(total) << parity_bits_);
}

SecDedResult HammingSecDed::check(std::span<const std::uint8_t> data,
                                  std::uint32_t stored_check) const {
  bool overall = false;
  const std::uint32_t syndrome = syndrome_and_parity(data, overall);
  const std::uint32_t stored_syndrome =
      stored_check & ((1u << parity_bits_) - 1u);
  const bool stored_total = (stored_check >> parity_bits_) & 1u;

  bool total_now = overall;
  for (int b = 0; b < parity_bits_; ++b)
    if ((stored_syndrome >> b) & 1u) total_now = !total_now;

  const std::uint32_t diff = syndrome ^ stored_syndrome;
  const bool parity_mismatch = (total_now != stored_total);

  SecDedResult r;
  if (diff == 0 && !parity_mismatch) {
    r.ok = true;
  } else if (parity_mismatch) {
    // Odd number of errors — treat as a correctable single error.
    r.corrected = true;
    r.error_bit = diff == 0 ? -1 : static_cast<std::int64_t>(diff);
  } else {
    // Syndrome mismatch with even parity: double error.
    r.double_error = true;
  }
  return r;
}

std::uint32_t HammingSecDed::encode_i8(
    std::span<const std::int8_t> data) const {
  return encode(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

SecDedResult HammingSecDed::check_i8(std::span<const std::int8_t> data,
                                     std::uint32_t stored_check) const {
  return check(std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size()),
               stored_check);
}

}  // namespace radar::codes
