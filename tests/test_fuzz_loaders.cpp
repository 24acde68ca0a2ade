// Fuzz/robustness battery for the two untrusted-input parsers: the
// package loader (v4 engine section, v3 arena format and the legacy v2
// path) and the campaign spec parser. Truncated, bit-corrupted and
// wrong-magic inputs must surface as radar::Error (or load with the
// tampering reported) — never crash, hang, or allocate unboundedly. v3
// adds structured attacks on the arena layer table: unaligned /
// overlapping / out-of-bounds offsets, oversized arena claims, and
// truncated blobs. v4 adds attacks on the engine section that keep its
// CRC valid, so they reach the section parser: truncations, op counts,
// layer indices, buffer ids, vector lengths and conv geometry at their
// extremes must all throw SerializationError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "campaign/campaign_spec.h"
#include "codes/crc.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/package.h"
#include "core/scheme_registry.h"
#include "exp/workspace.h"

namespace radar {
namespace {

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class PackageFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bundle_ = new exp::ModelBundle(
        exp::make_bundle("tiny", /*train=*/false, /*eval_clean=*/false));
    core::SchemeParams params;
    params.group_size = 64;
    auto scheme = core::SchemeRegistry::instance().create("radar2", params);
    scheme->attach(*bundle_->qmodel);
    core::save_package(kGoodPath, *bundle_->qmodel, *scheme, "tiny");
    golden_bytes_ = read_file(kGoodPath);
    ASSERT_GT(golden_bytes_.size(), 64u);
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
    std::remove(kGoodPath);
    std::remove(kFuzzPath);
  }

  /// Attempt a verified load of `bytes`; returns true when the loader
  /// either threw radar::Error or reported the corruption. Any other
  /// exception (bad_alloc, length_error, ...) fails the test.
  bool load_survives(const std::vector<unsigned char>& bytes,
                     bool expect_throw_only = false) {
    write_file(kFuzzPath, bytes);
    std::unique_ptr<core::IntegrityScheme> scheme;
    try {
      const auto report =
          core::load_package(kFuzzPath, *bundle_->qmodel, scheme);
      return !expect_throw_only;  // loaded: caller decides if that is ok
    } catch (const Error&) {
      return true;
    }
    // Anything else (std::bad_alloc, std::length_error, ...) escapes the
    // try above and fails the test loudly.
  }

  static constexpr const char* kGoodPath = "fuzz_package_good.bin";
  static constexpr const char* kFuzzPath = "fuzz_package_mut.bin";
  static exp::ModelBundle* bundle_;
  static std::vector<unsigned char> golden_bytes_;
};

exp::ModelBundle* PackageFuzzTest::bundle_ = nullptr;
std::vector<unsigned char> PackageFuzzTest::golden_bytes_;

TEST_F(PackageFuzzTest, IntactPackageVerifies) {
  std::unique_ptr<core::IntegrityScheme> scheme;
  const auto report =
      core::load_package(kGoodPath, *bundle_->qmodel, scheme);
  EXPECT_TRUE(report.verified());
}

TEST_F(PackageFuzzTest, EveryTruncationThrows) {
  // Dense coverage of the header region plus strides through the body.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 64; ++n) cuts.push_back(n);
  for (std::size_t n = 64; n < golden_bytes_.size(); n += 97)
    cuts.push_back(n);
  for (const std::size_t n : cuts) {
    const std::vector<unsigned char> trunc(golden_bytes_.begin(),
                                           golden_bytes_.begin() +
                                               static_cast<std::ptrdiff_t>(n));
    EXPECT_TRUE(load_survives(trunc, /*expect_throw_only=*/true))
        << "truncation at " << n << " bytes did not throw";
  }
}

TEST_F(PackageFuzzTest, WrongMagicAndVersionThrow) {
  auto bytes = golden_bytes_;
  bytes[0] ^= 0xFF;
  EXPECT_TRUE(load_survives(bytes, /*expect_throw_only=*/true));
  bytes = golden_bytes_;
  bytes[4] ^= 0x01;  // format version field
  EXPECT_TRUE(load_survives(bytes, /*expect_throw_only=*/true));
}

TEST_F(PackageFuzzTest, RandomBitCorruptionsNeverCrash) {
  Rng rng(0xF422);
  for (int iter = 0; iter < 300; ++iter) {
    auto bytes = golden_bytes_;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 7));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<unsigned char>(1u << rng.uniform_int(0, 7));
    }
    EXPECT_TRUE(load_survives(bytes)) << "iteration " << iter;
  }
}

TEST_F(PackageFuzzTest, CorruptLengthFieldsAreBounded) {
  // Saturate every plausible 8-byte window with a huge length; the loader
  // must reject it via the remaining-bytes bound, not attempt a 2^60-byte
  // allocation or a 2^60-slot scan.
  for (std::size_t pos = 8; pos + 8 <= golden_bytes_.size() && pos < 4096;
       pos += 13) {
    auto bytes = golden_bytes_;
    for (int i = 0; i < 8; ++i)
      bytes[pos + static_cast<std::size_t>(i)] = 0x7F;
    EXPECT_TRUE(load_survives(bytes)) << "length bomb at offset " << pos;
  }
}

TEST_F(PackageFuzzTest, WeightPayloadTamperingIsLocalized) {
  // Flip one weight byte (deep in the payload, past the header): the load
  // must succeed and report the tampering instead of throwing.
  auto bytes = golden_bytes_;
  bytes[bytes.size() / 2] ^= 0x80;
  write_file(kFuzzPath, bytes);
  std::unique_ptr<core::IntegrityScheme> scheme;
  try {
    const auto report =
        core::load_package(kFuzzPath, *bundle_->qmodel, scheme);
    EXPECT_FALSE(report.verified());
  } catch (const Error&) {
    // Also acceptable: the byte landed in a structural field.
  }
}

// ---- crafted v3 arena-table attacks ----

/// Parameters of a hand-built v3-shaped package file. Defaults describe a
/// well-formed two-layer package; each test corrupts one aspect.
struct CraftedV3 {
  std::int64_t arena_size = 192;
  std::vector<std::int64_t> sizes = {100, 60};
  std::vector<std::int64_t> offsets = {0, 128};
  std::uint32_t pad_excess = 0;   ///< add to the correct pad field value
  std::int64_t blob_shortfall = 0;  ///< bytes withheld from the blob
};

void write_crafted_v3(const std::string& path, const CraftedV3& cfg) {
  BinaryWriter w(path, core::kPackageFormatV3);
  w.write_string("crafted");
  w.write_string("radar2");  // scheme id
  w.write_i64(64);           // group_size
  w.write_u8(1);             // interleave
  w.write_i64(3);            // skew
  w.write_u8(1);             // expansion = prf
  w.write_u64(0);            // master key
  w.write_u32(0);            // payload crc (never reached on bad tables)
  w.write_u64(cfg.sizes.size());
  w.write_i64(cfg.arena_size);
  for (std::size_t li = 0; li < cfg.sizes.size(); ++li) {
    w.write_string("layer" + std::to_string(li));
    w.write_f32(1.0f);
    w.write_i64(cfg.sizes[li]);
    w.write_i64(cfg.offsets[li]);
  }
  for (std::size_t li = 0; li < cfg.sizes.size(); ++li)
    w.write_u8_vector({});  // golden codes (geometry dies first)
  const std::uint64_t pos = w.tell() + sizeof(std::uint32_t);
  const auto pad = static_cast<std::uint32_t>(
      (quant::kArenaAlignment - pos % quant::kArenaAlignment) %
      quant::kArenaAlignment);
  w.write_u32(pad + cfg.pad_excess);
  const std::vector<char> zeros(
      static_cast<std::size_t>(quant::kArenaAlignment), 0);
  w.write_bytes(zeros.data(), pad);
  // Cap the physical blob at 1 MiB: length-bomb tests claim astronomical
  // arena sizes precisely so the loader must reject them from the
  // remaining-bytes bound, not because we actually materialized them.
  const std::int64_t blob_bytes = std::min<std::int64_t>(
      std::int64_t{1} << 20,
      std::max<std::int64_t>(0, cfg.arena_size - cfg.blob_shortfall));
  for (std::int64_t i = 0; i < blob_bytes;
       i += static_cast<std::int64_t>(zeros.size()))
    w.write_bytes(zeros.data(),
                  static_cast<std::size_t>(std::min<std::int64_t>(
                      static_cast<std::int64_t>(zeros.size()),
                      blob_bytes - i)));
  w.close();
}

class V3TableFuzzTest : public PackageFuzzTest {
 protected:
  void expect_rejected(const CraftedV3& cfg, const char* what) {
    write_crafted_v3(kFuzzPath, cfg);
    std::unique_ptr<core::IntegrityScheme> scheme;
    EXPECT_THROW(core::load_package(kFuzzPath, *bundle_->qmodel, scheme),
                 Error)
        << what;
    EXPECT_THROW(core::read_package_info(kFuzzPath), Error) << what;
  }
};

TEST_F(V3TableFuzzTest, WellFormedCraftedTableParses) {
  // Sanity: the crafted writer itself is structurally valid — info parses
  // (the model-level load then rejects the layer-count mismatch).
  write_crafted_v3(kFuzzPath, CraftedV3{});
  const core::PackageInfo info = core::read_package_info(kFuzzPath);
  EXPECT_EQ(info.format_version, core::kPackageFormatV3);
  EXPECT_EQ(info.total_weights, 160);
}

TEST_F(V3TableFuzzTest, UnalignedOffsetRejected) {
  CraftedV3 cfg;
  cfg.offsets = {0, 100};  // not a multiple of 64
  expect_rejected(cfg, "unaligned layer offset");
}

TEST_F(V3TableFuzzTest, OverlappingLayersRejected) {
  CraftedV3 cfg;
  cfg.sizes = {100, 60};
  cfg.offsets = {0, 64};  // aligned, but 64 < 0 + 100
  expect_rejected(cfg, "overlapping layer table entries");
}

TEST_F(V3TableFuzzTest, OutOfBoundsLayerRejected) {
  CraftedV3 cfg;
  cfg.offsets = {0, 128};
  cfg.sizes = {100, 65};  // 128 + 65 > 192
  expect_rejected(cfg, "layer past the arena end");
}

TEST_F(V3TableFuzzTest, NegativeAndDescendingOffsetsRejected) {
  CraftedV3 cfg;
  cfg.offsets = {128, 0};  // descending
  cfg.sizes = {60, 60};
  expect_rejected(cfg, "descending offsets");
  cfg.offsets = {-64, 0};
  expect_rejected(cfg, "negative offset");
}

TEST_F(V3TableFuzzTest, OversizedArenaClaimRejected) {
  CraftedV3 cfg;
  cfg.arena_size = std::int64_t{1} << 60;  // length bomb
  expect_rejected(cfg, "arena size beyond the file");
}

TEST_F(V3TableFuzzTest, TruncatedArenaBlobRejected) {
  CraftedV3 cfg;
  cfg.blob_shortfall = 64;
  expect_rejected(cfg, "truncated arena blob");
}

TEST_F(V3TableFuzzTest, CorruptPaddingRejected) {
  CraftedV3 cfg;
  cfg.pad_excess = 64;  // pad field >= alignment
  expect_rejected(cfg, "corrupt padding field");
}

// ---- v4 engine section attacks ----

// Section layout (core/package.h): three i64 header fields, the u64 op
// count, then per op these fixed fields followed by the out_scale and
// out_bias vectors (u64 length + f32 values each).
constexpr std::size_t kOpCountAt = 24;
constexpr std::size_t kFirstOpAt = 32;
constexpr std::size_t kOpSrc = 2, kOpSrc2 = 6, kOpDst = 10, kOpLayer = 14,
                      kOpInCh = 22, kOpOutCh = 30, kOpKernel = 38,
                      kOpStride = 46, kOpPadding = 54, kOpScaleLen = 82;
constexpr std::size_t kTrailer = 12;  // u64 length + u32 CRC at EOF

class EngineSectionFuzzTest : public PackageFuzzTest {
 protected:
  /// Byte offset of the section in golden_bytes_, and its bytes.
  static std::size_t section_begin() {
    std::uint64_t len = 0;
    std::memcpy(&len, golden_bytes_.data() + golden_bytes_.size() - kTrailer,
                sizeof len);
    return golden_bytes_.size() - kTrailer - static_cast<std::size_t>(len);
  }
  static std::vector<unsigned char> section() {
    return {golden_bytes_.begin() +
                static_cast<std::ptrdiff_t>(section_begin()),
            golden_bytes_.end() - static_cast<std::ptrdiff_t>(kTrailer)};
  }
  /// The good package with `sec` as its engine section, trailer and CRC
  /// rewritten to match, so the mutation reaches the section parser.
  static std::vector<unsigned char> with_section(
      const std::vector<unsigned char>& sec) {
    std::vector<unsigned char> out(
        golden_bytes_.begin(),
        golden_bytes_.begin() + static_cast<std::ptrdiff_t>(section_begin()));
    out.insert(out.end(), sec.begin(), sec.end());
    const std::uint64_t len = sec.size();
    const std::uint32_t crc =
        codes::Crc(codes::CrcSpec::crc32())
            .compute(std::span<const std::uint8_t>(sec.data(), sec.size()));
    const auto* l = reinterpret_cast<const unsigned char*>(&len);
    const auto* c = reinterpret_cast<const unsigned char*>(&crc);
    out.insert(out.end(), l, l + sizeof len);
    out.insert(out.end(), c, c + sizeof crc);
    return out;
  }
  /// Start offset of every op record in `sec`.
  static std::vector<std::size_t> op_offsets(
      const std::vector<unsigned char>& sec) {
    std::uint64_t count = 0;
    std::memcpy(&count, sec.data() + kOpCountAt, sizeof count);
    std::vector<std::size_t> out;
    std::size_t pos = kFirstOpAt;
    for (std::uint64_t i = 0; i < count; ++i) {
      out.push_back(pos);
      pos += kOpScaleLen;
      for (int v = 0; v < 2; ++v) {
        std::uint64_t n = 0;
        std::memcpy(&n, sec.data() + pos, sizeof n);
        pos += sizeof n + static_cast<std::size_t>(n) * sizeof(float);
      }
    }
    EXPECT_EQ(pos, sec.size());
    return out;
  }
  template <typename T>
  static std::vector<unsigned char> poked(std::size_t at, T value) {
    auto sec = section();
    std::memcpy(sec.data() + at, &value, sizeof value);
    return sec;
  }
  /// Both loaders must reject the section with SerializationError.
  void expect_rejected(const std::vector<unsigned char>& sec,
                       const std::string& what) {
    write_file(kFuzzPath, with_section(sec));
    EXPECT_THROW(core::read_package_info(kFuzzPath), SerializationError)
        << what;
    std::unique_ptr<core::IntegrityScheme> scheme;
    EXPECT_THROW(core::load_package(kFuzzPath, *bundle_->qmodel, scheme),
                 SerializationError)
        << what;
  }
};

TEST_F(EngineSectionFuzzTest, ReframedIntactSectionStillLoads) {
  // Sanity: the re-framing helper itself produces a loadable package.
  write_file(kFuzzPath, with_section(section()));
  std::unique_ptr<core::IntegrityScheme> scheme;
  const auto report = core::load_package(kFuzzPath, *bundle_->qmodel, scheme);
  EXPECT_TRUE(report.verified());
  EXPECT_EQ(report.info.engine.ops.size(), op_offsets(section()).size());
}

TEST_F(EngineSectionFuzzTest, EverySectionTruncationThrows) {
  const auto sec = section();
  // Dense through the header and the first op record, strided after.
  for (std::size_t n = 0; n < sec.size(); n += (n < kFirstOpAt + 16 ? 1 : 41)) {
    expect_rejected({sec.begin(), sec.begin() + static_cast<std::ptrdiff_t>(n)},
                    "section truncated to " + std::to_string(n) + " bytes");
  }
  // Cuts through the trailer and the section, with the framing left
  // stale, die on the length or CRC check.
  for (std::size_t n = 1; n <= sec.size() + kTrailer;
       n += (n < 2 * kTrailer ? 1 : 97)) {
    const std::vector<unsigned char> trunc(
        golden_bytes_.begin(),
        golden_bytes_.end() - static_cast<std::ptrdiff_t>(n));
    write_file(kFuzzPath, trunc);
    EXPECT_THROW(core::read_package_info(kFuzzPath), SerializationError)
        << "file cut " << n << " bytes short";
  }
}

TEST_F(EngineSectionFuzzTest, OpCountExtremesThrow) {
  const std::uint64_t real = op_offsets(section()).size();
  for (const std::uint64_t count :
       {std::uint64_t{0}, std::uint64_t{1}, real - 1, real + 1,
        std::uint64_t{1} << 32, std::numeric_limits<std::uint64_t>::max()})
    expect_rejected(poked(kOpCountAt, count),
                    "op count " + std::to_string(count));
}

TEST_F(EngineSectionFuzzTest, LayerIndexExtremesThrow) {
  const auto ops = op_offsets(section());
  const std::uint64_t layers = bundle_->qmodel->num_layers();
  for (const std::uint64_t layer :
       {layers, layers + 1, std::uint64_t{1} << 40,
        std::numeric_limits<std::uint64_t>::max()})
    expect_rejected(poked(ops.front() + kOpLayer, layer),
                    "first conv reads layer " + std::to_string(layer));
  // An in-range layer of another shape fails the geometry check.
  expect_rejected(poked(ops.front() + kOpLayer, layers - 1),
                  "first conv reads the classifier layer");
}

TEST_F(EngineSectionFuzzTest, BufferIdExtremesThrow) {
  const auto ops = op_offsets(section());
  const std::int32_t bad[] = {-1, 3, 4, std::numeric_limits<std::int32_t>::min(),
                              std::numeric_limits<std::int32_t>::max()};
  for (const std::int32_t id : bad) {
    expect_rejected(poked(ops.front() + kOpSrc, id),
                    "first op src " + std::to_string(id));
    if (id != -1)  // -1 is the logits id, rejected below for non-final ops
      expect_rejected(poked(ops.back() + kOpDst, id),
                      "final op dst " + std::to_string(id));
    expect_rejected(poked(ops.front() + kOpDst, id),
                    "first op dst " + std::to_string(id));
  }
  // A conv writing the buffer it reads.
  const auto sec = section();
  std::int32_t src = 0;
  std::memcpy(&src, sec.data() + ops.front() + kOpSrc, sizeof src);
  expect_rejected(poked(ops.front() + kOpDst, src), "in-place conv");
  // The residual add's second operand.
  const auto add = std::find_if(ops.begin(), ops.end(), [&](std::size_t op) {
    return sec[op] == static_cast<unsigned char>(qnn::EngineOp::Kind::kAdd);
  });
  ASSERT_NE(add, ops.end());
  std::int32_t dst = 0;
  std::memcpy(&dst, sec.data() + *add + kOpDst, sizeof dst);
  for (const std::int32_t id : {-1, 3, dst})
    expect_rejected(poked(*add + kOpSrc2, id),
                    "residual add src2 " + std::to_string(id));
}

TEST_F(EngineSectionFuzzTest, VectorLengthExtremesThrow) {
  const auto ops = op_offsets(section());
  for (const std::size_t op : {ops.front(), ops.back()}) {
    for (const std::uint64_t len :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 30,
          std::uint64_t{1} << 62, std::numeric_limits<std::uint64_t>::max()})
      expect_rejected(poked(op + kOpScaleLen, len),
                      "out_scale length " + std::to_string(len));
  }
}

TEST_F(EngineSectionFuzzTest, ConvGeometryIsCheckedAgainstTheLayer) {
  const auto ops = op_offsets(section());
  const std::size_t conv = ops.front();
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  const struct {
    std::size_t field;
    std::int64_t value;
    const char* what;
  } cases[] = {
      {kOpKernel, 1, "kernel 3 -> 1 (layer too big)"},
      {kOpKernel, 0, "zero kernel"},
      {kOpKernel, big, "huge kernel"},
      {kOpStride, 0, "zero stride"},
      {kOpStride, -1, "negative stride"},
      {kOpPadding, -1, "negative padding"},
      {kOpPadding, 3, "padding as wide as the kernel"},
      {kOpInCh, 0, "zero input channels"},
      {kOpInCh, big, "huge input channels"},
      {kOpOutCh, 9, "one output channel too many"},
      {kOpOutCh, big, "huge output channels"},
  };
  for (const auto& c : cases)
    expect_rejected(poked(conv + c.field, c.value), c.what);
}

// ---- legacy v2 files keep their fuzz coverage ----

TEST_F(PackageFuzzTest, V2TruncationsAllThrow) {
  core::SchemeParams params;
  params.group_size = 64;
  auto scheme = core::SchemeRegistry::instance().create("radar2", params);
  scheme->attach(*bundle_->qmodel);
  core::save_package(kFuzzPath, *bundle_->qmodel, *scheme, "tiny",
                     core::kPackageFormatV2);
  const auto v2_bytes = read_file(kFuzzPath);
  ASSERT_GT(v2_bytes.size(), 64u);
  {
    std::unique_ptr<core::IntegrityScheme> loaded;
    EXPECT_TRUE(
        core::load_package(kFuzzPath, *bundle_->qmodel, loaded).verified());
  }
  for (std::size_t n = 0; n < v2_bytes.size(); n += 89) {
    const std::vector<unsigned char> trunc(
        v2_bytes.begin(), v2_bytes.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_TRUE(load_survives(trunc, /*expect_throw_only=*/true))
        << "v2 truncation at " << n << " bytes did not throw";
  }
}

// ---- campaign spec parser ----

const char* kGoodSpec = R"({
  "name": "fuzz", "model": "tiny", "train": false,
  "trials": 2, "seed": 9, "eval_subset": 0,
  "fault_rates": [0, 1e-4],
  "attackers": [{"kind": "random_msb", "flips": 6},
                {"kind": "pbfa", "flips": 3, "allowed_bits": [7]}],
  "schemes": [{"id": "radar2", "group_size": 32, "interleave": true},
              {"id": "crc13", "group_size": 64}]
})";

TEST(SpecFuzzTest, GoodSpecParses) {
  const auto spec = campaign::CampaignSpec::from_json_text(kGoodSpec);
  EXPECT_EQ(spec.attackers.size(), 2u);
  EXPECT_EQ(spec.schemes.size(), 2u);
}

TEST(SpecFuzzTest, EveryTruncationThrows) {
  const std::string good = kGoodSpec;
  for (std::size_t n = 0; n < good.size(); ++n) {
    const std::string trunc = good.substr(0, n);
    EXPECT_THROW(campaign::CampaignSpec::from_json_text(trunc), Error)
        << "truncation at " << n;
  }
}

TEST(SpecFuzzTest, RandomByteCorruptionsNeverCrash) {
  const std::string good = kGoodSpec;
  Rng rng(0x5BEC);
  int parsed_ok = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string mut = good;
    const int edits = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mut.size()) - 1));
      mut[pos] = static_cast<char>(rng.uniform_int(32, 126));
    }
    try {
      (void)campaign::CampaignSpec::from_json_text(mut);
      ++parsed_ok;  // corruption produced a different-but-valid spec
    } catch (const Error&) {
      // expected for most mutations
    }
  }
  // Sanity: the harness is actually exercising both outcomes.
  EXPECT_LT(parsed_ok, 500);
}

TEST(SpecFuzzTest, DeepNestingIsDepthLimited) {
  EXPECT_THROW(campaign::CampaignSpec::from_json_text(
                   std::string(100000, '[')),
               Error);
  std::string deep;
  for (int i = 0; i < 5000; ++i) deep += "{\"a\":";
  EXPECT_THROW(campaign::CampaignSpec::from_json_text(deep), Error);
}

TEST(SpecFuzzTest, HostileNumbersAreRejected) {
  EXPECT_THROW(campaign::CampaignSpec::from_json_text(
                   R"({"trials": 1e999, "attackers": [{"kind": "random"}],
                       "schemes": [{"id": "radar2"}]})"),
               Error);
  EXPECT_THROW(campaign::CampaignSpec::from_json_text(
                   R"({"trials": 2.5, "attackers": [{"kind": "random"}],
                       "schemes": [{"id": "radar2"}]})"),
               Error);
  EXPECT_THROW(campaign::CampaignSpec::from_json_text(
                   R"({"seed": -1, "attackers": [{"kind": "random"}],
                       "schemes": [{"id": "radar2"}]})"),
               Error);
  EXPECT_THROW(campaign::CampaignSpec::from_json_text(
                   R"({"attackers": [{"kind": "random", "flips": 1e12}],
                       "schemes": [{"id": "radar2"}]})"),
               Error);
}

}  // namespace
}  // namespace radar
