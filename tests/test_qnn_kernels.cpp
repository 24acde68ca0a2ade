// Differential battery for the batched int8 inference engine: the k-quad
// packed GEMM path must match a scalar reference and the pre-existing
// kernels BIT-exactly (int32 accumulation is exact, and both paths share
// one epilogue expression), across random geometries, odd strides and
// paddings, 1x1 and large kernels, K and P tails of the packed layout,
// extreme codes, and batch sizes 1..N — plus the zero-allocation
// guarantee of the steady-state forward loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <tuple>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "qnn/engine.h"
#include "qnn/kernels.h"
#include "quant/qmodel.h"

// ---- counting global allocator (zero-allocation assertions) ----
namespace {
std::atomic<std::size_t> g_live_allocs{0};
}

// new and the unsized delete, which every other form forwards to, stay
// out of line: an inlined malloc/free pair at a new-expression's call site
// would trip -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  ++g_live_allocs;
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace radar::qnn {
namespace {

std::vector<std::int8_t> random_codes(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return v;
}

QTensor random_qtensor(std::vector<std::int64_t> shape, float scale,
                       Rng& rng) {
  QTensor x;
  x.shape = std::move(shape);
  x.scale = scale;
  x.data = random_codes(static_cast<std::size_t>(x.numel()), rng);
  return x;
}

/// In-test scalar reference: the direct convolution polynomial with the
/// exact epilogue expression of the kernels.
nn::Tensor scalar_conv_ref(const QTensor& x, const std::vector<std::int8_t>& w,
                           float w_scale, const ConvGeom& g,
                           const std::vector<float>& bias) {
  const std::int64_t n = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const std::int64_t oh = g.out_size(in_h), ow = g.out_size(in_w);
  nn::Tensor y({n, g.out_channels, oh, ow});
  const float rescale = x.scale * w_scale;
  for (std::int64_t s = 0; s < n; ++s) {
    const std::int8_t* xs = x.data.data() + s * g.in_channels * in_h * in_w;
    for (std::int64_t co = 0; co < g.out_channels; ++co) {
      const float b = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(co)];
      for (std::int64_t yo = 0; yo < oh; ++yo) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          std::int32_t acc = 0;
          for (std::int64_t ci = 0; ci < g.in_channels; ++ci) {
            for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
              for (std::int64_t kw = 0; kw < g.kernel; ++kw) {
                const std::int64_t yi = yo * g.stride - g.padding + kh;
                const std::int64_t xi = xo * g.stride - g.padding + kw;
                if (yi < 0 || yi >= in_h || xi < 0 || xi >= in_w) continue;
                acc += static_cast<std::int32_t>(
                           xs[(ci * in_h + yi) * in_w + xi]) *
                       w[static_cast<std::size_t>(
                           ((co * g.in_channels + ci) * g.kernel + kh) *
                               g.kernel +
                           kw)];
              }
            }
          }
          y[y.idx4(s, co, yo, xo)] = static_cast<float>(acc) * rescale + b;
        }
      }
    }
  }
  return y;
}

struct Geom {
  std::int64_t ci, co, k, stride, pad, h, w, n;
};

ConvGeom conv_geom(const Geom& c) {
  ConvGeom g;
  g.in_channels = c.ci;
  g.out_channels = c.co;
  g.kernel = c.k;
  g.stride = c.stride;
  g.padding = c.pad;
  return g;
}

std::string describe(const Geom& c) {
  return "ci=" + std::to_string(c.ci) + " co=" + std::to_string(c.co) +
         " k=" + std::to_string(c.k) + " s=" + std::to_string(c.stride) +
         " p=" + std::to_string(c.pad) + " hw=" + std::to_string(c.h) + "x" +
         std::to_string(c.w) + " n=" + std::to_string(c.n);
}

/// Seams of the packed layout: K = Cin*K*K with every K mod 4 (the
/// partial last quad, including the stem's K = 27), P = OH*OW of 1, 4,
/// 15, 17, 63 and 65 (each side of the 16-column vectors and of the
/// 64-column tile), output channels that are no multiple of the tile's 4
/// rows, and depths past the AVX2 tile's 256-quad weight chunks.
const std::vector<Geom>& packed_seam_cases() {
  static const std::vector<Geom> cases = {
      {3, 16, 3, 1, 1, 32, 32, 1},  // the ResNet stem: K = 27, P = 1024
      {1, 5, 3, 1, 1, 1, 1, 2},     // K = 9 (mod 4 = 1), P = 1
      {2, 7, 3, 1, 1, 2, 2, 1},     // K = 18 (mod 2), P = 4
      {3, 9, 3, 1, 1, 3, 5, 2},     // K = 27 (mod 3), P = 15
      {5, 17, 1, 1, 0, 17, 1, 1},   // K = 5 (mod 1), P = 17
      {7, 6, 1, 1, 0, 7, 9, 1},     // K = 7 (mod 3), P = 63
      {6, 18, 1, 1, 0, 5, 13, 2},   // K = 6 (mod 2), P = 65
      {3, 5, 3, 2, 1, 25, 9, 1},    // strided, K = 27, P = 13 * 5 = 65
      {64, 20, 3, 1, 1, 2, 2, 1},   // K = 576, P = 4, five 4-row tiles
      {9, 33, 3, 1, 0, 9, 11, 1},   // "valid" 3x3, K = 81, P = 63
      {130, 6, 3, 1, 1, 3, 3, 1},   // K = 1170 (mod 2): two weight chunks
      {231, 5, 3, 1, 1, 3, 4, 1},   // K = 2079 (mod 3): three chunks
  };
  return cases;
}

/// Input codes of a case: random, or every code the same extreme.
enum class Fill { kRandom, kMin, kMax };

std::vector<std::int8_t> filled_codes(std::size_t n, Fill f, Rng& rng) {
  if (f == Fill::kRandom) return random_codes(n, rng);
  return std::vector<std::int8_t>(n, f == Fill::kMin ? -128 : 127);
}

void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0)
      << what << ": outputs are not bit-identical";
}

TEST(TiledConv, MatchesScalarAndDirectAcrossGeometries) {
  Rng rng(11);
  std::vector<Geom> cases = {
      {1, 1, 1, 1, 0, 4, 4, 1},   // degenerate 1x1
      {3, 8, 1, 1, 0, 9, 7, 2},   // 1x1 pointwise, odd sizes
      {3, 4, 1, 2, 0, 9, 9, 2},   // strided 1x1 (projection shortcut)
      {2, 5, 3, 1, 1, 8, 8, 3},   // classic 3x3
      {3, 4, 3, 2, 1, 11, 9, 2},  // strided 3x3, odd map
      {4, 6, 3, 3, 2, 10, 13, 1}, // stride 3, fat padding
      {2, 3, 5, 1, 2, 9, 9, 2},   // 5x5
      {1, 7, 5, 2, 0, 11, 11, 4}, // 5x5 no padding, stride 2
      {2, 2, 7, 1, 3, 12, 10, 2}, // large kernel
      {5, 17, 3, 1, 1, 6, 6, 3},  // co not a multiple of the tile width
  };
  cases.insert(cases.end(), packed_seam_cases().begin(),
               packed_seam_cases().end());
  // A few random geometries on top of the crafted ones.
  for (int r = 0; r < 8; ++r) {
    Geom g;
    g.k = 1 + 2 * rng.uniform_int(0, 2);  // 1/3/5
    g.stride = 1 + rng.uniform_int(0, 2);
    g.pad = rng.uniform_int(0, 2);
    g.ci = 1 + rng.uniform_int(0, 4);
    g.co = 1 + rng.uniform_int(0, 8);
    g.h = g.k + rng.uniform_int(0, 6);
    g.w = g.k + rng.uniform_int(0, 6);
    g.n = 1 + rng.uniform_int(0, 3);
    cases.push_back(g);
  }
  QnnScratch scratch;
  for (const Geom& c : cases) {
    const ConvGeom geom = conv_geom(c);
    const std::string what = describe(c);
    const auto w = random_codes(
        static_cast<std::size_t>(c.co * c.ci * c.k * c.k), rng);
    std::vector<float> bias;
    for (std::int64_t i = 0; i < c.co; ++i)
      bias.push_back(0.1f * static_cast<float>(rng.normal()));
    const QTensor x = random_qtensor({c.n, c.ci, c.h, c.w}, 0.04f, rng);
    const float w_scale = 0.02f;

    const nn::Tensor ref = scalar_conv_ref(x, w, w_scale, geom, bias);
    const nn::Tensor direct = conv2d_i8(x, w, w_scale, geom, bias);
    const nn::Tensor tiled = conv2d_i8_tiled(x, w, w_scale, geom, bias);
    nn::Tensor tiled_into;
    conv2d_i8_tiled_into(x, w, w_scale, geom, bias, scratch, tiled_into);

    expect_bitwise_equal(ref, direct, what + " (direct)");
    expect_bitwise_equal(ref, tiled, what + " (tiled)");
    expect_bitwise_equal(ref, tiled_into, what + " (tiled_into)");
  }
}

TEST(TiledConv, EveryDispatchLevelMatchesScalar) {
  // The register-tiled GEMM variants (AVX2 pmaddwd / AVX-512 VNNI) against
  // the scalar tile, bit for bit, across geometries chosen to hit the
  // vector column chunks, the tile's one to four 16-column vectors and
  // its column and row tails, and the packed layout's K and
  // P tails; each case also runs with every weight and every activation
  // at -128 or 127, where the biased u8 x s8 products are largest.
  Rng rng(31);
  std::vector<Geom> cases = {
      {1, 1, 1, 1, 0, 1, 1, 1},    // single output column
      {3, 5, 3, 1, 1, 5, 3, 1},    // tiny odd patch count, row tail
      {2, 4, 3, 1, 1, 4, 4, 2},    // p = 16 exactly (one vector)
      {2, 4, 3, 1, 1, 4, 4, 3},    // p = 16, three samples
      {3, 8, 1, 1, 0, 17, 3, 1},   // odd K = 3, p = 51
      {4, 9, 3, 2, 1, 15, 15, 2},  // strided, co % 4 != 0
      {5, 17, 5, 1, 2, 9, 9, 2},   // K = 125 (odd), wide co tail
      {8, 12, 3, 1, 1, 16, 16, 1}, // p = 256: four wide blocks, K = 72
  };
  cases.insert(cases.end(), packed_seam_cases().begin(),
               packed_seam_cases().end());
  QnnScratch scratch;
  for (const Geom& c : cases) {
    const ConvGeom geom = conv_geom(c);
    for (const Fill wf : {Fill::kRandom, Fill::kMin, Fill::kMax}) {
      for (const Fill xf : {Fill::kRandom, Fill::kMin, Fill::kMax}) {
        if ((wf == Fill::kRandom) != (xf == Fill::kRandom)) continue;
        const auto w = filled_codes(
            static_cast<std::size_t>(c.co * c.ci * c.k * c.k), wf, rng);
        std::vector<float> bias;
        for (std::int64_t i = 0; i < c.co; ++i)
          bias.push_back(0.1f * static_cast<float>(rng.normal()));
        QTensor x = random_qtensor({c.n, c.ci, c.h, c.w}, 0.04f, rng);
        x.data = filled_codes(x.data.size(), xf, rng);
        const std::string what =
            describe(c) + " fill w" + std::to_string(static_cast<int>(wf)) +
            " x" + std::to_string(static_cast<int>(xf));
        const nn::Tensor ref = scalar_conv_ref(x, w, 0.02f, geom, bias);
        nn::Tensor want;
        {
          cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
          conv2d_i8_tiled_into(x, w, 0.02f, geom, bias, scratch, want);
        }
        expect_bitwise_equal(ref, want, what + " scalar tile");
        for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
          const auto lvl = static_cast<cpu::SimdLevel>(l);
          if (!cpu::level_supported(lvl)) continue;
          cpu::ScopedSimdLevel guard(lvl);
          nn::Tensor got;
          conv2d_i8_tiled_into(x, w, 0.02f, geom, bias, scratch, got);
          expect_bitwise_equal(want, got,
                               what + " level " + cpu::level_name(lvl));
        }
      }
    }
  }
}

TEST(Int8Gemm, MaxDepthBoundsTheBiasedProducts) {
  // The packed conv tiles sum u8 x s8 products, |p| <= 255 * 128.
  constexpr std::int64_t kInt32Max = (std::int64_t{1} << 31) - 1;
  EXPECT_EQ(nn::kInt8GemmMaxK, 65793);
  EXPECT_LE(nn::kInt8GemmMaxK * 255 * 128, kInt32Max);
  EXPECT_GT((nn::kInt8GemmMaxK + 1) * 255 * 128, kInt32Max);
  const nn::RequantEpilogue epi;
  EXPECT_THROW(nn::gemm_i8_packed(nullptr, nullptr, nullptr, 0, 1,
                                  nn::kInt8GemmMaxK + 1, 1,
                                  nn::kInt8GemmMaxK + 1, 1, epi),
               InvalidArgument);
}

TEST(LinearI8, EveryDispatchLevelMatchesScalar) {
  Rng rng(37);
  for (const auto& [n, f, out] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {3, 15, 5}, {7, 64, 9}, {5, 333, 12}}) {
    const auto w = random_codes(static_cast<std::size_t>(out * f), rng);
    std::vector<float> bias;
    for (std::int64_t i = 0; i < out; ++i)
      bias.push_back(0.1f * static_cast<float>(rng.normal()));
    const QTensor x = random_qtensor({n, f}, 0.03f, rng);
    nn::Tensor want;
    {
      cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
      want = linear_i8(x, w, 0.02f, out, bias);
    }
    for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
      const auto lvl = static_cast<cpu::SimdLevel>(l);
      if (!cpu::level_supported(lvl)) continue;
      cpu::ScopedSimdLevel guard(lvl);
      expect_bitwise_equal(want, linear_i8(x, w, 0.02f, out, bias),
                           std::string("f=") + std::to_string(f) +
                               " level " + cpu::level_name(lvl));
    }
  }
}

TEST(TiledConv, NoBiasMatches) {
  Rng rng(12);
  ConvGeom geom;
  geom.in_channels = 3;
  geom.out_channels = 5;
  geom.kernel = 3;
  geom.stride = 1;
  geom.padding = 1;
  const auto w = random_codes(static_cast<std::size_t>(5 * 3 * 9), rng);
  const QTensor x = random_qtensor({2, 3, 7, 7}, 0.05f, rng);
  expect_bitwise_equal(conv2d_i8(x, w, 0.03f, geom, {}),
                       conv2d_i8_tiled(x, w, 0.03f, geom, {}), "no-bias");
}

TEST(LinearI8, TiledMatchesScalarReference) {
  Rng rng(13);
  for (const auto& [n, f, out] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 5, 3}, {3, 16, 5}, {7, 33, 9}, {64, 64, 10}}) {
    const auto w = random_codes(static_cast<std::size_t>(out * f), rng);
    std::vector<float> bias;
    for (std::int64_t i = 0; i < out; ++i)
      bias.push_back(0.1f * static_cast<float>(rng.normal()));
    const QTensor x = random_qtensor({n, f}, 0.03f, rng);
    const float ws = 0.02f;
    const nn::Tensor y = linear_i8(x, w, ws, out, bias);
    const float rescale = x.scale * ws;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t o = 0; o < out; ++o) {
        std::int32_t acc = 0;
        for (std::int64_t kk = 0; kk < f; ++kk)
          acc += static_cast<std::int32_t>(
                     x.data[static_cast<std::size_t>(i * f + kk)]) *
                 w[static_cast<std::size_t>(o * f + kk)];
        const float expect = static_cast<float>(acc) * rescale +
                             bias[static_cast<std::size_t>(o)];
        ASSERT_EQ(y[y.idx2(i, o)], expect) << "n=" << n << " o=" << o;
      }
    }
  }
}

// ---- engine-level differentials ----

struct EngineRig {
  nn::ResNetSpec spec;
  std::unique_ptr<nn::ResNet> model;
  std::unique_ptr<quant::QuantizedModel> qm;
  nn::Tensor calib, x;

  EngineRig() {
    Rng rng(21);
    spec.num_classes = 4;
    spec.base_width = 8;
    spec.blocks_per_stage = {1, 1};
    spec.name = "rig";
    model = std::make_unique<nn::ResNet>(spec, rng);
    // Non-trivial BN running statistics.
    nn::Tensor warm = nn::Tensor::randn({8, 3, 16, 16}, rng);
    model->forward(warm, nn::Mode::kTrain);
    qm = std::make_unique<quant::QuantizedModel>(*model);
    calib = nn::Tensor::randn({16, 3, 16, 16}, rng);
    x = nn::Tensor::randn({6, 3, 16, 16}, rng);
  }

  InferenceEngine make(EngineKind kind, ThreadPool* pool = nullptr) {
    InferenceEngine e(*qm, kind, pool);
    e.calibrate(calib);
    return e;
  }
};

TEST(Engine, BatchedMatchesReferenceBitExactly) {
  EngineRig rig;
  InferenceEngine ref = rig.make(EngineKind::kReference);
  InferenceEngine bat = rig.make(EngineKind::kBatched);
  const nn::Tensor want = ref.forward(rig.x);
  for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
    const auto lvl = static_cast<cpu::SimdLevel>(l);
    if (!cpu::level_supported(lvl)) continue;
    cpu::ScopedSimdLevel guard(lvl);
    expect_bitwise_equal(want, bat.forward(rig.x),
                         std::string("engine kinds, level ") +
                             cpu::level_name(lvl));
  }
}

TEST(Engine, BatchSplitInvariance) {
  EngineRig rig;
  InferenceEngine eng = rig.make(EngineKind::kBatched);
  const nn::Tensor full = eng.forward(rig.x);
  const std::int64_t chw = 3 * 16 * 16;
  for (std::int64_t s = 0; s < rig.x.dim(0); ++s) {
    nn::Tensor one({1, 3, 16, 16});
    std::memcpy(one.data(), rig.x.data() + s * chw,
                sizeof(float) * static_cast<std::size_t>(chw));
    const nn::Tensor ly = eng.forward(one);
    for (std::int64_t c = 0; c < full.dim(1); ++c)
      ASSERT_EQ(full[full.idx2(s, c)], ly[ly.idx2(0, c)])
          << "sample " << s << " class " << c;
  }
}

TEST(Engine, ThreadPoolInvariance) {
  EngineRig rig;
  InferenceEngine serial = rig.make(EngineKind::kBatched, nullptr);
  ThreadPool pool(3);
  InferenceEngine pooled = rig.make(EngineKind::kBatched, &pool);
  expect_bitwise_equal(serial.forward(rig.x), pooled.forward(rig.x),
                       "thread pool");
}

TEST(Engine, SeesLiveWeightMutations) {
  EngineRig rig;
  InferenceEngine eng = rig.make(EngineKind::kBatched);
  const nn::Tensor before = eng.forward(rig.x);
  // The stem's rows are K = 27 long, so the last byte of each sits in the
  // partial quad the tiles assemble from the row: the first byte, the
  // last byte of row 0 and the last byte of the layer.
  const std::int64_t row = 3 * 3 * 3;
  ASSERT_EQ(rig.qm->layer(0).size() % row, 0);
  for (const std::int64_t idx :
       {std::int64_t{0}, row - 1, rig.qm->layer(0).size() - 1}) {
    const std::int8_t old = rig.qm->get_code(0, idx);
    rig.qm->set_code(0, idx,
                     static_cast<std::int8_t>(old == 127 ? -127 : 127));
    const nn::Tensor attacked = eng.forward(rig.x);
    EXPECT_GT(nn::max_abs_diff(before, attacked), 0.0f) << "byte " << idx;
    rig.qm->set_code(0, idx, old);
    expect_bitwise_equal(before, eng.forward(rig.x),
                         "restored weights, byte " + std::to_string(idx));
  }
}

TEST(Engine, ProgramDeeperThanTheBoundIsRefused) {
  EngineRig rig;
  const EngineProgram good = rig.make(EngineKind::kBatched).program();
  ASSERT_EQ(program_defect(good, *rig.qm), nullptr);
  // A 1x1 conv one channel past the bound, whose weight layer would fit
  // it, and a depth the pre-biased bound (2^31 / 16256) still allowed.
  for (const std::int64_t depth :
       {nn::kInt8GemmMaxK + 1, std::int64_t{100000}}) {
    EngineProgram p = good;
    EngineOp& conv = p.ops.front();
    conv.geom.in_channels = depth;
    conv.geom.kernel = 1;
    conv.geom.padding = 0;
    p.in_channels = depth;
    std::vector<std::int64_t> sizes(rig.qm->num_layers());
    for (std::size_t i = 0; i < sizes.size(); ++i)
      sizes[i] = rig.qm->layer(i).size();
    sizes[conv.qlayer] = depth * conv.geom.out_channels;
    const char* defect = program_defect(p, sizes);
    ASSERT_NE(defect, nullptr) << depth;
    EXPECT_STREQ(defect, "conv reduction depth overflows int32 accumulation");
  }
  EngineProgram p = good;
  EngineOp& fc = p.ops.back();
  fc.in_features = nn::kInt8GemmMaxK + 1;
  std::vector<std::int64_t> sizes(rig.qm->num_layers());
  for (std::size_t i = 0; i < sizes.size(); ++i)
    sizes[i] = rig.qm->layer(i).size();
  sizes[fc.qlayer] = fc.in_features * fc.out_features;
  EXPECT_STREQ(program_defect(p, sizes), "linear shape out of range");
}

TEST(Engine, SteadyStateForwardIsAllocationFree) {
  EngineRig rig;
  InferenceEngine eng = rig.make(EngineKind::kBatched, /*pool=*/nullptr);
  QnnScratch scratch;
  nn::Tensor logits;
  // Warm-up: buffers grow to the high-water mark of this batch shape.
  eng.forward_into(rig.x, scratch, logits);
  eng.forward_into(rig.x, scratch, logits);
  // A smaller "remainder" batch (as produced when eval_subset is not a
  // multiple of eval_batch) must reuse the grown buffers too.
  nn::Tensor remainder({2, 3, 16, 16});
  std::memcpy(remainder.data(), rig.x.data(),
              sizeof(float) * static_cast<std::size_t>(remainder.numel()));
  const std::size_t grows_after_warmup = scratch.grows;
  const std::size_t allocs_before = g_live_allocs.load();
  for (int i = 0; i < 5; ++i) {
    eng.forward_into(rig.x, scratch, logits);
    eng.forward_into(remainder, scratch, logits);
  }
  const std::size_t allocs_after = g_live_allocs.load();
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state forward loop heap-allocated";
  EXPECT_EQ(scratch.grows, grows_after_warmup) << "scratch kept growing";
}

TEST(Engine, ReferenceSteadyStateIsAllocationFreeToo) {
  EngineRig rig;
  InferenceEngine eng = rig.make(EngineKind::kReference, /*pool=*/nullptr);
  QnnScratch scratch;
  nn::Tensor logits;
  eng.forward_into(rig.x, scratch, logits);
  const std::size_t allocs_before = g_live_allocs.load();
  for (int i = 0; i < 3; ++i) eng.forward_into(rig.x, scratch, logits);
  EXPECT_EQ(g_live_allocs.load() - allocs_before, 0u);
}

TEST(Engine, RequiresCalibration) {
  EngineRig rig;
  InferenceEngine eng(*rig.qm, EngineKind::kBatched, nullptr);
  EXPECT_THROW(eng.forward(rig.x), InvalidArgument);
  eng.calibrate(rig.calib);
  EXPECT_THROW(eng.calibrate(rig.calib), InvalidArgument);  // once only
  EXPECT_NO_THROW(eng.forward(rig.x));
}

}  // namespace
}  // namespace radar::qnn
