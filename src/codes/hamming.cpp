#include "codes/hamming.h"

#include <algorithm>
#include <bit>

#include "codes/row_fold.h"
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
  // Bits past the end of `data` are zero and add nothing.
  const std::int64_t bits =
      std::min(data_bits_, static_cast<std::int64_t>(data.size()) * 8);
  std::int64_t pos = 2;
  for (std::int64_t i = 0; i < bits; ++i) {
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

std::int64_t HammingSecDed::data_bit_position(std::int64_t i) {
  // Position p = m + (powers of two <= p) with m = i + 1; the count is
  // bit_width(p), so iterate p = m + bit_width(p) from below. It grows by
  // at most one per step and settles within two.
  const auto m = static_cast<std::uint64_t>(i) + 1;
  std::uint64_t p = m + static_cast<std::uint64_t>(std::bit_width(m));
  while (m + static_cast<std::uint64_t>(std::bit_width(p)) != p)
    p = m + static_cast<std::uint64_t>(std::bit_width(p));
  return static_cast<std::int64_t>(p);
}

HammingSecDed::ByteTerms HammingSecDed::byte_terms(
    std::int64_t byte_index) const {
  RADAR_REQUIRE(byte_index >= 0 && byte_index * 8 + 8 <= data_bits_,
                "byte index outside the block");
  // Bit b of the byte is data bit 8*byte_index + b; its term is its
  // codeword position plus a parity bit.
  std::uint32_t term[8] = {};
  std::int64_t pos = data_bit_position(byte_index * 8);
  for (std::uint32_t& t : term) {
    t = static_cast<std::uint32_t>(pos) | 0x80000000u;
    ++pos;
    if ((pos & (pos - 1)) == 0) ++pos;
  }
  ByteTerms terms = {};  // lo[0] = hi[0] = 0: a zero nibble adds nothing
  for (unsigned x = 1; x < 16; ++x) {
    const int b = std::countr_zero(x);
    terms.lo[x] = terms.lo[x & (x - 1)] ^ term[b];
    terms.hi[x] = terms.hi[x & (x - 1)] ^ term[b + 4];
  }
  return terms;
}

namespace {

/// XORs R rows' terms into n states; terms[r] belongs to rows[r]. The
/// terms come through a pointer the states might alias, which keeps GCC
/// from vectorizing this loop into emulated table gathers; with the terms
/// in a local array it did, and ResNet-18 at G=512 went from ~3.8 to
/// ~5.9 ms (GCC 12, -O3, x86-64).
template <std::size_t R>
void hamming_fold_rows(std::uint32_t* st, std::size_t n,
                       const std::uint8_t* const* rows,
                       const HammingSecDed::ByteTerms* terms) {
  const std::uint8_t* d[R] = {};
  for (std::size_t r = 0; r < R; ++r) d[r] = rows[r];
  for (std::size_t k = 0; k < n; ++k) {
    std::uint32_t x = st[k];
    for (std::size_t r = 0; r < R; ++r)
      x ^= terms[r].lo[d[r][k] & 15u] ^ terms[r].hi[d[r][k] >> 4];
    st[k] = x;
  }
}

}  // namespace

void HammingSecDed::fold(std::span<std::uint32_t> states,
                         std::span<const std::uint8_t* const> rows,
                         const ByteTerms* terms) const {
  std::uint32_t* st = states.data();
  const std::size_t n = states.size();
  for_each_row_run(
      rows,
      [&](std::size_t j) {
        hamming_fold_rows<kFusedRows>(st, n, rows.data() + j, terms + j);
      },
      [&](std::size_t j) {
        hamming_fold_rows<1>(st, n, rows.data() + j, terms + j);
      });
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
