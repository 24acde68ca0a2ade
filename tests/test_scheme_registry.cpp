// The registry contract every IntegrityScheme must honor: creatable by
// name, detects any single MSB flip, survives an export/import golden
// round-trip, and zero-out recovery clears all flagged groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "codes/crc.h"
#include "codes/fletcher.h"
#include "codes/hamming.h"
#include "common/bits.h"
#include "core/grouped_code.h"
#include "core/scheme.h"
#include "core/scheme_registry.h"

namespace radar::core {
namespace {

nn::ResNetSpec tiny_spec() {
  nn::ResNetSpec s;
  s.num_classes = 4;
  s.base_width = 8;
  s.blocks_per_stage = {1, 1};
  s.name = "tiny";
  return s;
}

SchemeParams test_params() {
  SchemeParams p;
  p.group_size = 32;
  return p;
}

class SchemeContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  SchemeContractTest() : rng_(42), model_(tiny_spec(), rng_), qm_(model_) {}

  std::unique_ptr<IntegrityScheme> make_attached() {
    auto scheme =
        SchemeRegistry::instance().create(GetParam(), test_params());
    scheme->attach(qm_);
    return scheme;
  }

  Rng rng_;
  nn::ResNet model_;
  quant::QuantizedModel qm_;
};

TEST_P(SchemeContractTest, ReportsItsRegistryId) {
  auto scheme = make_attached();
  EXPECT_EQ(scheme->id(), GetParam());
  EXPECT_EQ(scheme->params().group_size, 32);
  EXPECT_EQ(scheme->num_layers(), qm_.num_layers());
  EXPECT_GT(scheme->signature_storage_bytes(), 0);
  EXPECT_GT(scheme->total_groups(), 0);
}

TEST_P(SchemeContractTest, CleanModelScansClean) {
  auto scheme = make_attached();
  EXPECT_FALSE(scheme->scan(qm_).attack_detected());
}

TEST_P(SchemeContractTest, DetectsAnySingleMsbFlip) {
  auto scheme = make_attached();
  const quant::ArenaSnapshot clean = qm_.snapshot();
  for (std::size_t layer : {std::size_t{0}, std::size_t{2}}) {
    const std::int64_t last = qm_.layer(layer).size() - 1;
    for (const std::int64_t idx : {std::int64_t{0}, last / 2, last}) {
      qm_.flip_bit(layer, idx, kMsb);
      const DetectionReport report = scheme->scan(qm_);
      EXPECT_TRUE(report.attack_detected())
          << GetParam() << " missed MSB flip at layer " << layer
          << " index " << idx;
      EXPECT_TRUE(report.is_flagged(layer,
                                    scheme->layout(layer).group_of(idx)))
          << GetParam() << " flagged the wrong group";
      qm_.restore(clean);
    }
  }
}

TEST_P(SchemeContractTest, GoldenExportImportRoundTrips) {
  auto scheme = make_attached();
  const auto golden = scheme->export_golden();
  ASSERT_EQ(golden.size(), qm_.num_layers());

  // A freshly attached scheme of the same id/params accepts the exported
  // golden codes and still scans the clean model clean...
  auto fresh = SchemeRegistry::instance().create(GetParam(), test_params());
  fresh->attach(qm_);
  fresh->import_golden(golden);
  EXPECT_FALSE(fresh->scan(qm_).attack_detected());

  // ...and reveals tampering that happens after the import.
  qm_.flip_bit(1, 3, kMsb);
  EXPECT_TRUE(fresh->scan(qm_).attack_detected());
  qm_.flip_bit(1, 3, kMsb);
}

TEST_P(SchemeContractTest, ZeroOutRecoveryClearsFlaggedGroups) {
  auto scheme = make_attached();
  const quant::ArenaSnapshot clean = qm_.snapshot();
  qm_.flip_bit(1, 3, kMsb);
  qm_.flip_bit(2, 9, kMsb);
  const DetectionReport report = scheme->scan(qm_);
  ASSERT_TRUE(report.attack_detected());

  scheme->recover(qm_, report, RecoveryPolicy::kZeroOut);
  for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
    for (const std::int64_t g : report.flagged[li]) {
      for (const std::int64_t idx : scheme->layout(li).group_members(g))
        EXPECT_EQ(qm_.get_code(li, idx), 0)
            << GetParam() << " left layer " << li << " index " << idx;
    }
  }
  // After re-signing the zeroed state, the next scan is clean.
  scheme->resign(qm_);
  EXPECT_FALSE(scheme->scan(qm_).attack_detected());
  qm_.restore(clean);
}

TEST_P(SchemeContractTest, ReloadCleanRecoveryRestoresWeights) {
  auto scheme = make_attached();
  const quant::ArenaSnapshot clean = qm_.snapshot();
  qm_.flip_bit(1, 3, kMsb);
  const DetectionReport report = scheme->scan(qm_);
  ASSERT_TRUE(report.attack_detected());
  scheme->recover(qm_, report, RecoveryPolicy::kReloadClean);
  EXPECT_EQ(qm_.snapshot(), clean);
  EXPECT_FALSE(scheme->scan(qm_).attack_detected());
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredSchemes, SchemeContractTest,
    ::testing::ValuesIn(SchemeRegistry::instance().ids()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Grouped-code differential: every scan entry point of every block-code
// scheme must flag exactly the groups a slot-by-slot reference flags. Two
// references gather through GroupLayout::member(), sharing neither the
// member walk, the row folds nor the golden store with the scheme: one
// calls code().compute() on the gathered block, the other the codes-level
// functions (the bit-serial CRC, HammingSecDed::encode, fletcher16).
class GroupedScanDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::int64_t, bool>> {};

std::vector<std::int8_t> member_block(const GroupLayout& layout,
                                      std::span<const std::int8_t> q,
                                      std::int64_t g) {
  std::vector<std::int8_t> block(static_cast<std::size_t>(layout.group_size()));
  for (std::int64_t s = 0; s < layout.group_size(); ++s) {
    const std::int64_t i = layout.member(g, s);
    block[static_cast<std::size_t>(s)] =
        i < 0 ? std::int8_t{0} : q[static_cast<std::size_t>(i)];
  }
  return block;
}

std::vector<std::uint32_t> reference_words(const GroupedCodeScheme& scheme,
                                           const quant::QuantizedModel& qm,
                                           std::size_t layer) {
  const GroupLayout& layout = scheme.layout(layer);
  std::vector<std::uint32_t> words;
  for (std::int64_t g = 0; g < layout.num_groups(); ++g)
    words.push_back(
        scheme.code().compute(member_block(layout, qm.layer(layer).q, g)));
  return words;
}

/// The codes-level check word of one gathered block for registry id `id`.
std::uint32_t codes_word(const std::string& id,
                         const std::vector<std::int8_t>& block) {
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(block.data()), block.size());
  if (id == "fletcher") return codes::fletcher16(bytes);
  if (id == "hamming-secded")
    return codes::HammingSecDed(static_cast<std::int64_t>(block.size()) * 8)
        .encode(bytes);
  const codes::CrcSpec spec = id == "crc7"    ? codes::CrcSpec::crc7()
                              : id == "crc10" ? codes::CrcSpec::crc10()
                              : id == "crc13" ? codes::CrcSpec::crc13()
                                              : codes::CrcSpec::crc16_ccitt();
  EXPECT_TRUE(id == "crc7" || id == "crc10" || id == "crc13" || id == "crc16")
      << id;
  return codes::Crc(spec).compute_bitwise(bytes);
}

/// Second reference: codes-level words of every group of one layer; also
/// checks they agree with reference_words.
std::vector<std::uint32_t> codes_reference_words(
    const GroupedCodeScheme& scheme, const quant::QuantizedModel& qm,
    std::size_t layer) {
  const GroupLayout& layout = scheme.layout(layer);
  std::vector<std::uint32_t> words;
  for (std::int64_t g = 0; g < layout.num_groups(); ++g)
    words.push_back(
        codes_word(scheme.id(), member_block(layout, qm.layer(layer).q, g)));
  EXPECT_EQ(words, reference_words(scheme, qm, layer))
      << scheme.id() << " layer " << layer;
  return words;
}

/// The `width`-bit golden words the scheme stores, decoded from
/// export_golden().
std::vector<std::uint32_t> exported_words(const IntegrityScheme& scheme,
                                          std::size_t layer, int width) {
  const GroupLayout& layout = scheme.layout(layer);
  PackedWordStore store(layout.num_groups(), width);
  store.set_packed(scheme.export_golden()[layer]);
  std::vector<std::uint32_t> words;
  for (std::int64_t g = 0; g < layout.num_groups(); ++g)
    words.push_back(store.get(g));
  return words;
}

TEST_P(GroupedScanDifferential, AllScanPathsMatchMemberReference) {
  const auto [id, group_size, interleave] = GetParam();
  Rng rng(static_cast<std::uint64_t>(group_size * 2 + interleave));
  nn::ResNet model(tiny_spec(), rng);
  quant::QuantizedModel qm(model);
  SchemeParams params;
  params.group_size = group_size;
  params.interleave = interleave;
  auto owned = SchemeRegistry::instance().create(id, params);
  auto* scheme = dynamic_cast<GroupedCodeScheme*>(owned.get());
  ASSERT_NE(scheme, nullptr) << id << " is not a GroupedCodeScheme";
  scheme->attach(qm);

  std::vector<std::vector<std::uint32_t>> golden;
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    golden.push_back(codes_reference_words(*scheme, qm, li));
    EXPECT_EQ(exported_words(*scheme, li, scheme->code().code_bits()),
              golden.back())
        << id << " golden words of layer " << li;
  }

  ScanScratch scratch;
  std::vector<std::int64_t> flagged;
  for (int round = 0; round < 4; ++round) {
    const quant::ArenaSnapshot clean = qm.snapshot();
    const int flips = 1 + round * 3;
    for (int f = 0; f < flips; ++f) {
      const auto li = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(qm.num_layers()) - 1));
      qm.flip_bit(li, rng.uniform_int(0, qm.layer(li).size() - 1), kMsb);
    }
    for (std::size_t li = 0; li < qm.num_layers(); ++li) {
      const auto words = codes_reference_words(*scheme, qm, li);
      std::vector<std::int64_t> expected;
      for (std::size_t g = 0; g < words.size(); ++g)
        if (words[g] != golden[li][g])
          expected.push_back(static_cast<std::int64_t>(g));
      const auto ng = static_cast<std::int64_t>(words.size());

      scheme->scan_layer_into(qm, li, flagged, scratch);
      EXPECT_EQ(flagged, expected) << id << " layer " << li;

      // A sorted subset of the groups: every third one plus the last.
      std::vector<std::int64_t> subset, expected_subset;
      for (std::int64_t g = 0; g < ng; ++g)
        if (g % 3 == round % 3 || g == ng - 1) subset.push_back(g);
      for (const std::int64_t g : expected)
        if (std::binary_search(subset.begin(), subset.end(), g))
          expected_subset.push_back(g);
      scheme->scan_layer_groups(qm, li, subset, flagged, scratch);
      EXPECT_EQ(flagged, expected_subset) << id << " layer " << li;

      const std::int64_t begin = ng / 3, end = ng - ng / 4;
      std::vector<std::int64_t> expected_range;
      for (const std::int64_t g : expected)
        if (g >= begin && g < end) expected_range.push_back(g);
      scheme->scan_layer_range_into(qm, li, begin, end, flagged, scratch);
      EXPECT_EQ(flagged, expected_range) << id << " layer " << li;
      scheme->scan_layer_range_into(qm, li, 0, ng, flagged, scratch);
      EXPECT_EQ(flagged, expected) << id << " layer " << li;
    }
    qm.restore(clean);
  }

  const std::int64_t past_end = scheme->layout(0).num_groups();
  for (const std::int64_t bad : {std::int64_t{-1}, past_end}) {
    const std::vector<std::int64_t> groups = {0, bad};
    EXPECT_THROW(scheme->scan_layer_groups(qm, 0, groups, flagged, scratch),
                 InvalidArgument)
        << id << " accepted group " << bad;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlockCodes, GroupedScanDifferential,
    ::testing::Combine(::testing::Values("crc7", "crc10", "crc13", "crc16",
                                         "fletcher", "hamming-secded"),
                       ::testing::Values(8, 16, 512), ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_G" +
                         std::to_string(std::get<1>(info.param)) +
                         (std::get<2>(info.param) ? "_interleaved"
                                                  : "_contiguous");
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Edge geometries on a model whose layers hold 27, 9, 9 and 5 weights:
// W % G != 0 (a partial last row), Ng <= skew (W=5, G=4: Ng=2 < 3; W=9,
// G=4: Ng == skew, so rows do not rotate), Ng == 1, G == 1, skew 0, a
// skew larger than Ng, all-padding rows (W=27, G=8 or 12), and more rows
// than one fold pass takes (G=12, 16). Every range window [b, e) is
// scanned, so windows that wrap past column Ng-1 are all covered.
//
// Both scheme families run their dense scans on the one interleaved row
// loop, so radar2 and radar3 take the same geometries, checked against
// group_signature (masked_group_sum + binarize) over GroupLayout::member.
class GroupedScanEdgeGeometry
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::tuple<std::int64_t, std::int64_t>,
                     bool>> {};

/// Reference check words of every group of one layer: block-code words as
/// codes_reference_words computes them, radar signatures (their bits) from
/// group_signature under the layer's mask.
std::vector<std::uint32_t> edge_reference_words(
    const IntegrityScheme& scheme, const quant::QuantizedModel& qm,
    std::size_t layer) {
  if (const auto* codes = dynamic_cast<const GroupedCodeScheme*>(&scheme))
    return codes_reference_words(*codes, qm, layer);
  const auto& radar = dynamic_cast<const RadarScheme&>(scheme);
  const GroupLayout& layout = radar.layout(layer);
  const MaskStream mask(
      MaskStream::derive_layer_key(radar.params().master_key, layer),
      radar.params().expansion);
  std::vector<std::uint32_t> words;
  for (std::int64_t g = 0; g < layout.num_groups(); ++g)
    words.push_back(group_signature(qm.layer(layer).q, layout, g, mask,
                                    radar.signature_bits())
                        .bits);
  return words;
}

/// The golden words the scheme stores, decoded from export_golden().
std::vector<std::uint32_t> edge_exported_words(const IntegrityScheme& scheme,
                                               std::size_t layer) {
  const auto* codes = dynamic_cast<const GroupedCodeScheme*>(&scheme);
  return exported_words(
      scheme, layer,
      codes != nullptr
          ? codes->code().code_bits()
          : dynamic_cast<const RadarScheme&>(scheme).signature_bits());
}

TEST_P(GroupedScanEdgeGeometry, EveryScanPathMatchesTheReferences) {
  const auto& [id, geometry, interleave] = GetParam();
  const auto [group_size, skew] = geometry;
  nn::ResNetSpec spec;
  spec.in_channels = 3;
  spec.num_classes = 5;
  spec.base_width = 1;
  spec.blocks_per_stage = {1};
  spec.name = "edge";
  Rng rng(static_cast<std::uint64_t>(group_size * 131 + skew));
  nn::ResNet model(spec, rng);
  quant::QuantizedModel qm(model);
  ASSERT_EQ(qm.layer(0).size(), 27);
  ASSERT_EQ(qm.layer(qm.num_layers() - 1).size(), 5);
  SchemeParams params;
  params.group_size = group_size;
  params.interleave = interleave;
  params.skew = skew;
  auto scheme = SchemeRegistry::instance().create(id, params);
  scheme->attach(qm);

  std::vector<std::vector<std::uint32_t>> golden;
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    golden.push_back(edge_reference_words(*scheme, qm, li));
    EXPECT_EQ(edge_exported_words(*scheme, li), golden.back())
        << "layer " << li;
  }
  ScanScratch scratch;
  std::vector<std::int64_t> flagged;
  for (int round = 0; round < 3; ++round) {
    const quant::ArenaSnapshot clean = qm.snapshot();
    for (int f = 0; f < 1 + round; ++f) {
      const auto li = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(qm.num_layers()) - 1));
      qm.flip_bit(li, rng.uniform_int(0, qm.layer(li).size() - 1),
                  static_cast<int>(rng.uniform_int(0, 7)));
    }
    for (std::size_t li = 0; li < qm.num_layers(); ++li) {
      const auto words = edge_reference_words(*scheme, qm, li);
      const auto ng = static_cast<std::int64_t>(words.size());
      std::vector<std::int64_t> expected;
      for (std::int64_t g = 0; g < ng; ++g)
        if (words[static_cast<std::size_t>(g)] !=
            golden[li][static_cast<std::size_t>(g)])
          expected.push_back(g);
      scheme->scan_layer_into(qm, li, flagged, scratch);
      EXPECT_EQ(flagged, expected) << "layer " << li;
      std::vector<std::int64_t> all(static_cast<std::size_t>(ng));
      std::iota(all.begin(), all.end(), std::int64_t{0});
      scheme->scan_layer_groups(qm, li, all, flagged, scratch);
      EXPECT_EQ(flagged, expected) << "layer " << li;
      for (std::int64_t b = 0; b < ng; ++b) {
        for (std::int64_t e = b; e <= ng; ++e) {
          std::vector<std::int64_t> expected_range;
          for (const std::int64_t g : expected)
            if (g >= b && g < e) expected_range.push_back(g);
          scheme->scan_layer_range_into(qm, li, b, e, flagged, scratch);
          EXPECT_EQ(flagged, expected_range)
              << "layer " << li << " range [" << b << ", " << e << ")";
        }
      }
    }
    qm.restore(clean);
  }
}

/// (group size, skew) pairs of the edge-geometry suites.
const auto kEdgeGeometries =
    ::testing::Values(std::tuple<std::int64_t, std::int64_t>{1, 3},
                      std::tuple<std::int64_t, std::int64_t>{2, 3},
                      std::tuple<std::int64_t, std::int64_t>{4, 3},
                      std::tuple<std::int64_t, std::int64_t>{4, 0},
                      std::tuple<std::int64_t, std::int64_t>{5, 7},
                      std::tuple<std::int64_t, std::int64_t>{8, 3},
                      std::tuple<std::int64_t, std::int64_t>{12, 3},
                      std::tuple<std::int64_t, std::int64_t>{16, 1},
                      std::tuple<std::int64_t, std::int64_t>{64, 3});

std::string edge_geometry_name(
    const ::testing::TestParamInfo<GroupedScanEdgeGeometry::ParamType>&
        info) {
  const auto& geometry = std::get<1>(info.param);
  std::string name = std::get<0>(info.param) + "_G" +
                     std::to_string(std::get<0>(geometry)) + "_t" +
                     std::to_string(std::get<1>(geometry)) +
                     (std::get<2>(info.param) ? "_interleaved"
                                              : "_contiguous");
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    BlockCodes, GroupedScanEdgeGeometry,
    ::testing::Combine(::testing::Values("crc7", "crc13", "crc16",
                                         "fletcher", "hamming-secded"),
                       kEdgeGeometries, ::testing::Bool()),
    edge_geometry_name);

INSTANTIATE_TEST_SUITE_P(
    Radar, GroupedScanEdgeGeometry,
    ::testing::Combine(::testing::Values("radar2", "radar3"),
                       kEdgeGeometries, ::testing::Bool()),
    edge_geometry_name);

// No block code may size a table by group_size: at the largest group the
// package loader accepts, every layer of `tiny` is one mostly-padding
// group, which must still attach, scan clean and flag a flip. (Short,
// zero-padded groups are checked against the references above.)
TEST(GroupedCodeScheme, MaxGroupSizeAttachesAndScansClean) {
  Rng rng(5);
  nn::ResNet model(tiny_spec(), rng);
  quant::QuantizedModel qm(model);
  for (const std::string id : {"crc13", "hamming-secded"}) {
    for (const bool interleave : {true, false}) {
      SchemeParams params;
      params.group_size = kMaxGroupSize;
      params.interleave = interleave;
      auto scheme = SchemeRegistry::instance().create(id, params);
      scheme->attach(qm);
      for (std::size_t li = 0; li < qm.num_layers(); ++li)
        ASSERT_EQ(scheme->layout(li).num_groups(), 1);
      EXPECT_FALSE(scheme->scan(qm).attack_detected()) << id;
      qm.flip_bit(1, 0, kMsb);
      const DetectionReport report = scheme->scan(qm);
      EXPECT_EQ(report.num_flagged_groups(), 1) << id;
      EXPECT_TRUE(report.is_flagged(1, 0)) << id;
      qm.flip_bit(1, 0, kMsb);
      EXPECT_FALSE(scheme->scan(qm).attack_detected()) << id;
    }
  }
}

TEST(SchemeRegistry, KnowsTheBuiltins) {
  auto& reg = SchemeRegistry::instance();
  for (const char* id : {"radar2", "radar3", "crc7", "crc10", "crc13",
                         "crc16", "fletcher", "hamming-secded"})
    EXPECT_TRUE(reg.contains(id)) << id;
}

TEST(SchemeRegistry, UnknownIdThrowsWithKnownIdsListed) {
  try {
    SchemeRegistry::instance().create("no-such-scheme", SchemeParams{});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("radar2"), std::string::npos);
  }
}

TEST(SchemeRegistry, CustomSchemesCanRegister) {
  auto& reg = SchemeRegistry::instance();
  reg.register_scheme("custom-radar", [](const SchemeParams& p) {
    return std::make_unique<RadarScheme>(p, 2);
  });
  EXPECT_TRUE(reg.contains("custom-radar"));
  auto scheme = reg.create("custom-radar", SchemeParams{});
  ASSERT_NE(scheme, nullptr);
}

}  // namespace
}  // namespace radar::core
