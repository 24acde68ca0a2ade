// RadarPackage: signed deployment artifact round trips and tamper
// evidence, with the scheme id + params carried in the artifact; format
// v4 (the signed, calibrated engine program), v3 (contiguous weight arena
// + layer table + mmap'd golden copy), the transparent v2 migration path,
// and crash safety against a writer killed mid-write.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "common/bits.h"
#include "common/fault_points.h"
#include "core/package.h"
#include "core/scheme.h"
#include "core/scheme_registry.h"
#include "data/model_recipe.h"
#include "qnn/engine.h"
#include "qnn/qnn_scratch.h"
#include "serve/host.h"

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

class PackageTest : public ::testing::Test {
 protected:
  PackageTest()
      : rng_(21),
        model_(tiny_spec(), rng_),
        qm_(model_),
        path_("/tmp/radar_test_pkg_" + std::to_string(::getpid()) + ".rpkg") {
  }
  ~PackageTest() override { std::filesystem::remove(path_); }

  RadarScheme make_signed_scheme() {
    SchemeParams params;
    params.group_size = 32;
    RadarScheme scheme(params, 2);
    scheme.attach(qm_);
    return scheme;
  }

  Rng rng_;
  nn::ResNet model_;
  quant::QuantizedModel qm_;
  std::string path_;
};

TEST_F(PackageTest, SaveLoadRoundTripVerifies) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "tiny-v1");

  // Load into a *fresh* model instance.
  Rng rng2(99);
  nn::ResNet other(tiny_spec(), rng2);
  quant::QuantizedModel qm2(other);
  std::unique_ptr<IntegrityScheme> scheme2;
  const PackageLoadReport report = load_package(path_, qm2, scheme2);
  EXPECT_TRUE(report.crc_ok);
  EXPECT_TRUE(report.signatures_ok);
  EXPECT_TRUE(report.verified());
  EXPECT_EQ(report.info.model_name, "tiny-v1");
  EXPECT_EQ(report.info.scheme_id, "radar2");
  EXPECT_EQ(report.info.total_weights, qm_.total_weights());
  // Weights restored exactly (one arena compare).
  EXPECT_EQ(qm2.snapshot(), qm_.snapshot());
  // The rebuilt scheme works: clean scan after load.
  ASSERT_NE(scheme2, nullptr);
  EXPECT_EQ(scheme2->id(), "radar2");
  EXPECT_FALSE(scheme2->scan(qm2).attack_detected());
}

TEST_F(PackageTest, SchemeParamsSurviveRoundTrip) {
  SchemeParams params;
  params.group_size = 16;
  params.interleave = false;
  params.skew = 5;
  params.expansion = MaskStream::Expansion::kRepeat;
  params.master_key = 0x1234;
  RadarScheme scheme(params, 3);
  scheme.attach(qm_);
  save_package(path_, qm_, scheme, "cfg-test");
  const PackageInfo info = read_package_info(path_);
  EXPECT_EQ(info.scheme_id, "radar3");
  EXPECT_EQ(info.params.group_size, 16);
  EXPECT_FALSE(info.params.interleave);
  EXPECT_EQ(info.params.skew, 5);
  EXPECT_EQ(info.params.expansion, MaskStream::Expansion::kRepeat);
  EXPECT_EQ(info.params.master_key, 0x1234u);
}

TEST_F(PackageTest, EverySchemeRoundTripsThroughPackage) {
  SchemeParams params;
  params.group_size = 32;
  for (const auto& id : SchemeRegistry::instance().ids()) {
    auto scheme = SchemeRegistry::instance().create(id, params);
    scheme->attach(qm_);
    save_package(path_, qm_, *scheme, "rt-" + id);

    Rng rng2(7);
    nn::ResNet other(tiny_spec(), rng2);
    quant::QuantizedModel qm2(other);
    std::unique_ptr<IntegrityScheme> loaded;
    const PackageLoadReport report = load_package(path_, qm2, loaded);
    EXPECT_TRUE(report.verified()) << id;
    EXPECT_EQ(report.info.scheme_id, id);
    ASSERT_NE(loaded, nullptr) << id;
    EXPECT_EQ(loaded->id(), id);
  }
}

TEST_F(PackageTest, TamperedWeightsAreLocalized) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "tiny-v1");

  // Attacker modifies the deployed model *after* signing (equivalently,
  // the file in transit): flip an MSB, re-save without access to the
  // golden signatures.
  qm_.flip_bit(2, 7, kMsb);
  {
    // Re-serialize with the tampered weights but the ORIGINAL golden
    // signatures (attacker cannot forge them without the key).
    Rng r(1);
    nn::ResNet scratch(tiny_spec(), r);
    quant::QuantizedModel qm_scratch(scratch);
    std::unique_ptr<IntegrityScheme> s2;
    load_package(path_, qm_scratch, s2);  // original content
    qm_scratch.flip_bit(2, 7, kMsb);
    save_package(path_, qm_scratch, *s2, "tiny-v1");
    // save_package exports s2's golden, which is the original one.
  }

  Rng rng2(5);
  nn::ResNet fresh(tiny_spec(), rng2);
  quant::QuantizedModel qm2(fresh);
  std::unique_ptr<IntegrityScheme> scheme2;
  const PackageLoadReport report = load_package(path_, qm2, scheme2);
  EXPECT_FALSE(report.signatures_ok);
  EXPECT_FALSE(report.verified());
  // The tampered group is localized.
  EXPECT_TRUE(report.tamper.is_flagged(
      2, scheme2->layout(2).group_of(7)));
  EXPECT_EQ(report.tamper.num_flagged_groups(), 1);
}

TEST_F(PackageTest, ParallelLoadMatchesSerial) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "tiny-v1");
  qm_.flip_bit(1, 3, kMsb);
  {
    Rng r(1);
    nn::ResNet scratch(tiny_spec(), r);
    quant::QuantizedModel qm_scratch(scratch);
    std::unique_ptr<IntegrityScheme> s2;
    load_package(path_, qm_scratch, s2);
    qm_scratch.flip_bit(1, 3, kMsb);
    save_package(path_, qm_scratch, *s2, "tiny-v1");
  }

  Rng rng2(5);
  nn::ResNet fresh(tiny_spec(), rng2);
  quant::QuantizedModel qm2(fresh);
  std::unique_ptr<IntegrityScheme> serial_scheme;
  const auto serial = load_package(path_, qm2, serial_scheme, 1);
  std::unique_ptr<IntegrityScheme> parallel_scheme;
  const auto parallel = load_package(path_, qm2, parallel_scheme, 4);
  EXPECT_EQ(serial.tamper.flagged, parallel.tamper.flagged);
  EXPECT_FALSE(parallel.signatures_ok);
}

TEST_F(PackageTest, LayerCountMismatchRejected) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "tiny-v1");
  nn::ResNetSpec other_spec = tiny_spec();
  other_spec.blocks_per_stage = {1};
  Rng rng2(3);
  nn::ResNet other(other_spec, rng2);
  quant::QuantizedModel qm2(other);
  std::unique_ptr<IntegrityScheme> scheme2;
  EXPECT_THROW(load_package(path_, qm2, scheme2), InvalidArgument);
}

TEST_F(PackageTest, InfoDoesNotNeedModel) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "info-only");
  const PackageInfo info = read_package_info(path_);
  EXPECT_EQ(info.model_name, "info-only");
  EXPECT_EQ(info.num_layers, qm_.num_layers());
  EXPECT_EQ(info.total_weights, qm_.total_weights());
}

TEST_F(PackageTest, InterruptedSaveKeepsThePreviousPackage) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "good");
  const auto size = std::filesystem::file_size(path_);

  // A save that fails partway through: the writer may write only half a
  // package (RLIMIT_FSIZE), so a write fails with EFBIG once the header
  // and part of the payload are out. The child exits 0 only when
  // save_package reported that as a SerializationError.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    std::signal(SIGXFSZ, SIG_IGN);  // fail the write, do not kill us
    const rlim_t half = static_cast<rlim_t>(size / 2);
    const rlimit limit{half, half};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(2);
    try {
      save_package(path_, qm_, scheme, "partial");
    } catch (const SerializationError&) {
      ::_exit(0);
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the size-limited save did not throw SerializationError (status "
      << status << ")";

  // The original package is intact and still verifies.
  EXPECT_EQ(read_package_info(path_).model_name, "good");
  Rng rng2(5);
  nn::ResNet other(tiny_spec(), rng2);
  quant::QuantizedModel qm2(other);
  std::unique_ptr<IntegrityScheme> loaded;
  EXPECT_TRUE(load_package(path_, qm2, loaded).verified());

  // The abandoned writer removed its temp file.
  const std::filesystem::path target(path_);
  const std::string temp_prefix = target.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path()))
    EXPECT_NE(entry.path().filename().string().rfind(temp_prefix, 0), 0u)
        << "leftover temp file " << entry.path();
}

/// FNV-1a 64 over every layer's exported golden bytes, each layer
/// prefixed by its byte count.
std::uint64_t golden_hash(const IntegrityScheme& scheme) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint8_t b) {
    h = (h ^ b) * 0x100000001b3ULL;
  };
  for (const auto& layer : scheme.export_golden()) {
    for (int k = 0; k < 8; ++k)
      mix(static_cast<std::uint8_t>(layer.size() >> (8 * k)));
    for (const std::uint8_t b : layer) mix(b);
  }
  return h;
}

// The stored golden bytes are what a verifier reads back out of a package
// signed by an earlier build: a change to any scheme's word kernel or to
// the bit packing would make those packages fail to verify while every
// scan test still passes. Pinned per registered scheme at G = 32, with the
// interleaved and the contiguous layout.
TEST_F(PackageTest, GoldenBytesArePinned) {
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      kPinned = {
          {"crc10", {0xc1a8b175174ed876ULL, 0xef61b37f3370f081ULL}},
          {"crc13", {0xb1776259b5c8f8e3ULL, 0xe0fb49a5eeecdeeaULL}},
          {"crc16", {0x2baf7a07691fd0a4ULL, 0x194e299c1ee12ea2ULL}},
          {"crc7", {0xbdb1b2b3bb4fde67ULL, 0xcdc9d50afd774d3bULL}},
          {"fletcher", {0x57f51e6e4187a22cULL, 0x68a3071b0f670246ULL}},
          {"hamming-secded", {0xd97b09c945906ab6ULL, 0x21444ea1d1215862ULL}},
          {"radar2", {0xf059929edf70ec9cULL, 0x1a2fdbfbf21806efULL}},
          {"radar3", {0xba5c8fa004ebe8f4ULL, 0x5203ea9ae2bbd1adULL}},
      };
  for (const auto& id : SchemeRegistry::instance().ids()) {
    const auto pinned = kPinned.find(id);
    ASSERT_NE(pinned, kPinned.end()) << "no pinned golden bytes for " << id;
    for (const bool interleave : {true, false}) {
      SchemeParams params;
      params.group_size = 32;
      params.interleave = interleave;
      auto scheme = SchemeRegistry::instance().create(id, params);
      scheme->attach(qm_);
      const std::uint64_t got = golden_hash(*scheme);
      EXPECT_EQ(got, interleave ? pinned->second.first
                                : pinned->second.second)
          << id << (interleave ? " interleaved" : " contiguous") << ": 0x"
          << std::hex << got;
    }
  }
}

TEST_F(PackageTest, CorruptFileRejected) {
  EXPECT_THROW(read_package_info("/tmp/no_such_package.rpkg"),
               SerializationError);
}

// ---- format v3: contiguous arena ----

TEST_F(PackageTest, V3InfoCarriesArenaTable) {
  // v4 keeps the v3 layout in front of its engine section.
  RadarScheme scheme = make_signed_scheme();
  for (const std::uint32_t version : {kPackageFormatV3, kPackageFormatV4}) {
    save_package(path_, qm_, scheme, "v3-table", version);
    const PackageInfo info = read_package_info(path_);
    EXPECT_EQ(info.format_version, version);
    ASSERT_EQ(info.layers.size(), qm_.num_layers());
    EXPECT_EQ(info.arena_bytes, qm_.arena().size_bytes());
    for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
      const quant::ArenaLayer& pl = info.layers[li];
      const quant::ArenaLayer& ml = qm_.arena().layer(li);
      EXPECT_EQ(pl.name, ml.name);
      EXPECT_EQ(pl.offset, ml.offset);
      EXPECT_EQ(pl.size, ml.size);
      EXPECT_EQ(pl.scale, ml.scale);
    }
  }
}

TEST_F(PackageTest, V2SaveStillRoundTripsAndReportsVersion) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "legacy", kPackageFormatV2);
  const PackageInfo info = read_package_info(path_);
  EXPECT_EQ(info.format_version, kPackageFormatV2);
  EXPECT_EQ(info.total_weights, qm_.total_weights());
  // The derived arena geometry matches what a fresh arena would assign.
  ASSERT_EQ(info.layers.size(), qm_.num_layers());
  for (std::size_t li = 0; li < qm_.num_layers(); ++li)
    EXPECT_EQ(info.layers[li].offset, qm_.arena().layer(li).offset);

  Rng rng2(12);
  nn::ResNet other(tiny_spec(), rng2);
  quant::QuantizedModel qm2(other);
  std::unique_ptr<IntegrityScheme> scheme2;
  const PackageLoadReport report = load_package(path_, qm2, scheme2);
  EXPECT_TRUE(report.verified());
  EXPECT_EQ(qm2.snapshot(), qm_.snapshot());
}

TEST_F(PackageTest, V2ToV3MigrationPreservesReportsAndLogits) {
  // Tamper AFTER signing so both loads carry a non-trivial detection
  // report; migrating the artifact v2 -> v3 must not change a single bit
  // of the report or of the engine logits.
  RadarScheme scheme = make_signed_scheme();
  qm_.flip_bit(2, 7, kMsb);
  save_package(path_, qm_, scheme, "migrate", kPackageFormatV2);

  const std::string v3_path = path_ + ".v3";
  nn::Tensor x;
  {
    Rng rx(1234);
    x = nn::Tensor::randn({4, 3, 32, 32}, rx);
  }
  auto load_and_eval = [&](const std::string& p, DetectionReport& tamper,
                           nn::Tensor& logits) {
    Rng rng2(55);
    nn::ResNet fresh(tiny_spec(), rng2);
    quant::QuantizedModel qm2(fresh);
    std::unique_ptr<IntegrityScheme> s;
    const PackageLoadReport report = load_package(p, qm2, s);
    tamper = report.tamper;
    qnn::InferenceEngine engine(qm2, qnn::EngineKind::kBatched);
    engine.calibrate(x);
    qnn::QnnScratch scratch;
    engine.forward_into(x, scratch, logits);
    // Re-save as v3 from this loaded state for the second pass.
    save_package(v3_path, qm2, *s, "migrate", kPackageFormatV3);
    return report.info.format_version;
  };
  DetectionReport tamper_v2, tamper_v3;
  nn::Tensor logits_v2, logits_v3;
  EXPECT_EQ(load_and_eval(path_, tamper_v2, logits_v2), kPackageFormatV2);
  EXPECT_EQ(load_and_eval(v3_path, tamper_v3, logits_v3), kPackageFormatV3);
  EXPECT_TRUE(tamper_v2.attack_detected());
  EXPECT_EQ(tamper_v2.flagged, tamper_v3.flagged);
  ASSERT_EQ(logits_v2.numel(), logits_v3.numel());
  EXPECT_EQ(std::memcmp(logits_v2.data(), logits_v3.data(),
                        static_cast<std::size_t>(logits_v2.numel()) *
                            sizeof(float)),
            0)
      << "logits differ across the v2 -> v3 migration";
  std::filesystem::remove(v3_path);
}

TEST_F(PackageTest, MmapGoldenBacksReloadCleanRecovery) {
  // Both scheme families: the mmap load skips the owned clean-copy
  // capture (defer_clean_capture), so recovery must read the mapping.
  for (const std::string id : {"radar2", "crc13"}) {
    SCOPED_TRACE(id);
    auto scheme = SchemeRegistry::instance().create(
        id, SchemeParams{.group_size = 32});
    scheme->attach(qm_);
    save_package(path_, qm_, *scheme, "mmap-golden");

    Rng rng2(77);
    nn::ResNet fresh(tiny_spec(), rng2);
    quant::QuantizedModel qm2(fresh);
    std::unique_ptr<IntegrityScheme> s;
    PackageLoadOptions opts;
    opts.mmap_golden = true;
    const PackageLoadReport report = load_package(path_, qm2, s, opts);
    EXPECT_TRUE(report.verified());
    EXPECT_EQ(s->id(), id);
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(report.golden_mmapped);
#endif
    const quant::ArenaSnapshot clean = qm2.snapshot();
    // Corrupt in memory, then recover straight from the file mapping.
    qm2.flip_bit(1, 5, kMsb);
    qm2.flip_bit(3, 9, kMsb);
    const DetectionReport tamper = s->scan(qm2);
    EXPECT_TRUE(tamper.attack_detected());
    s->recover(qm2, tamper, RecoveryPolicy::kReloadClean);
    EXPECT_TRUE(qm2.snapshot() == clean);
    EXPECT_FALSE(s->scan(qm2).attack_detected());
  }
}

TEST_F(PackageTest, MmapFallsBackForV2Packages) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "v2-no-mmap", kPackageFormatV2);
  Rng rng2(78);
  nn::ResNet fresh(tiny_spec(), rng2);
  quant::QuantizedModel qm2(fresh);
  std::unique_ptr<IntegrityScheme> s;
  PackageLoadOptions opts;
  opts.mmap_golden = true;
  const PackageLoadReport report = load_package(path_, qm2, s, opts);
  EXPECT_TRUE(report.verified());
  EXPECT_FALSE(report.golden_mmapped);  // owned copy; recovery still works
  qm2.flip_bit(0, 2, kMsb);
  const DetectionReport tamper = s->scan(qm2);
  s->recover(qm2, tamper, RecoveryPolicy::kReloadClean);
  EXPECT_FALSE(s->scan(qm2).attack_detected());
}

// ---- format v4: the signed engine program ----

/// Byte range [begin, end) of a v4 file's engine section (it runs up to
/// the u64 length + u32 CRC trailer at EOF).
std::pair<std::size_t, std::size_t> engine_section_range(
    const std::vector<char>& file) {
  std::uint64_t len = 0;
  std::memcpy(&len, file.data() + file.size() - 12, sizeof len);
  return {file.size() - 12 - static_cast<std::size_t>(len),
          file.size() - 12};
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(PackageTest, V4SignsTheCalibratedEngine) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "v4-engine");
  const PackageInfo info = read_package_info(path_);
  EXPECT_EQ(info.format_version, kPackageFormatV4);
  EXPECT_EQ(info.engine.calib_images, kPackageCalibImages);
  EXPECT_EQ(info.engine.num_classes, 4);
  EXPECT_EQ(info.engine.ops.size(), qnn::compile_program(qm_).ops.size());

  // The signer's engine: compiled from the signed network, calibrated on
  // the first test images of the "tiny" recipe dataset.
  const data::SyntheticDataset ds = data::model_recipe("tiny").dataset();
  const nn::Tensor calib = ds.test_batch(0, kPackageCalibImages).images;
  qnn::InferenceEngine signer(qm_);
  signer.calibrate(calib);
  const nn::Tensor want = signer.forward(calib);

  // A fresh model of another init serves the package's program.
  Rng rng2(31);
  nn::ResNet other(tiny_spec(), rng2);
  quant::QuantizedModel qm2(other);
  std::unique_ptr<IntegrityScheme> loaded;
  PackageLoadReport report = load_package(path_, qm2, loaded);
  ASSERT_TRUE(report.verified());
  qnn::InferenceEngine served(qm2, std::move(report.info.engine));
  const nn::Tensor got = served.forward(calib);
  ASSERT_EQ(got.numel(), want.numel());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)),
            0)
      << "served logits differ from the signer's engine";
}

TEST_F(PackageTest, FlippingAnEngineSectionByteFailsTheLoad) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "v4-flip");
  const std::vector<char> good = slurp(path_);
  const auto [begin, end] = engine_section_range(good);
  ASSERT_GT(end, begin);
  std::vector<std::size_t> sites;
  for (std::size_t i = begin; i < good.size(); i += 29) sites.push_back(i);
  for (std::size_t i = end; i < good.size(); ++i) sites.push_back(i);
  sites.push_back(end - 1);
  for (const std::size_t at : sites) {
    std::vector<char> bad = good;
    bad[at] ^= 0x01;
    spit(path_, bad);
    Rng rng2(8);
    nn::ResNet other(tiny_spec(), rng2);
    quant::QuantizedModel qm2(other);
    std::unique_ptr<IntegrityScheme> loaded;
    EXPECT_THROW(load_package(path_, qm2, loaded), SerializationError)
        << "flipped byte " << at - begin << " of the engine section";
  }
}

TEST_F(PackageTest, V3PackageStillLoadsAndVerifies) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "legacy-v3", kPackageFormatV3);
  const PackageInfo info = read_package_info(path_);
  EXPECT_EQ(info.format_version, kPackageFormatV3);
  EXPECT_TRUE(info.engine.ops.empty());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(map_package_arena(path_).ok());
#endif

  Rng rng2(41);
  nn::ResNet other(tiny_spec(), rng2);
  quant::QuantizedModel qm2(other);
  std::unique_ptr<IntegrityScheme> loaded;
  const PackageLoadReport report = load_package(path_, qm2, loaded);
  EXPECT_TRUE(report.verified());
  EXPECT_EQ(qm2.snapshot(), qm_.snapshot());
}

TEST_F(PackageTest, HostRefusesV3PackageWithResignHint) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "legacy-v3", kPackageFormatV3);
  serve::ModelHost host;
  serve::TenantConfig cfg;
  cfg.name = "legacy";
  cfg.package_path = path_;
  cfg.model_id = "tiny";
  try {
    host.add_tenant(cfg);
    FAIL() << "a v3 package entered service";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("re-sign it with `radar_cli sign`"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(host.num_tenants(), 0u);
}

TEST_F(PackageTest, WriterKilledMidWriteKeepsThePreviousPackage) {
  RadarScheme scheme = make_signed_scheme();
  save_package(path_, qm_, scheme, "previous");

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The writer: new weights over the same path, stopped (SIGSTOP) by
    // the fault point after the weight payload, before the rename.
    qm_.flip_bit(0, 0, kMsb);
    chaos::FaultRegistry::instance().arm(chaos::points::kPackageMidWrite,
                                         {});
    try {
      save_package(path_, qm_, scheme, "replacement");
    } catch (...) {
    }
    ::_exit(0);  // reached only when the fault point did not stop us
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, WUNTRACED), child);
  ASSERT_TRUE(WIFSTOPPED(status)) << "writer finished instead of stopping";
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // The killed writer left its half-written temp file, not the target.
  const std::filesystem::path target(path_);
  const std::string temp_prefix = target.filename().string() + ".tmp." +
                                  std::to_string(child) + ".";
  int temps = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(temp_prefix, 0) != 0)
      continue;
    ++temps;
    EXPECT_LT(std::filesystem::file_size(entry.path()),
              std::filesystem::file_size(target));
    std::filesystem::remove(entry.path());
  }
  EXPECT_EQ(temps, 1);

  EXPECT_EQ(read_package_info(path_).model_name, "previous");
  Rng rng2(5);
  nn::ResNet other(tiny_spec(), rng2);
  quant::QuantizedModel qm2(other);
  std::unique_ptr<IntegrityScheme> loaded;
  EXPECT_TRUE(load_package(path_, qm2, loaded).verified());
  EXPECT_EQ(qm2.snapshot(), qm_.snapshot());
}

}  // namespace
}  // namespace radar::core
