// micro_qnn — int8 inference kernel throughput, the engine's per-part
// breakdown at paper model sizes, and end-to-end eval speedup.
//
// Three sections, all landing in BENCH_qnn.json (the inference-path
// counterpart of BENCH_scan.json):
//
//  1. Kernel throughput (GMAC/s) per ResNet-20 layer shape: the
//     pre-existing direct 7-loop convolution (conv2d_i8) vs the batched
//     k-quad packing + tiled int8 GEMM path (conv2d_i8_tiled), batch 8.
//     Outputs are asserted bit-identical while timing.
//
//  2. Engine breakdown on seeded full-width resnet20(10) and
//     resnet18(20, 64) (random weights, calibrated on a random batch):
//     single-thread batch-1 and batch-8 forwards (pool = nullptr, as a
//     serving worker runs them), then per conv shape of the batch-1
//     forward the pack (pack_patches_u8) and the tile + epilogue
//     (gemm_i8_packed) of one sample, and the remainder (quantize, add,
//     pool, linear, dispatch) as `nonconv`. Each timed row is the median
//     of 5 interleaved rounds, recorded with its fastest and slowest.
//
//  3. End-to-end: the trained tiny bundle's eval path (the accuracy
//     measurements every campaign trial with eval_subset > 0 pays) run
//     through the reference engine (direct conv per sample — the old
//     kernels) vs the batched engine. Logits must be byte-identical; the
//     images/sec ratio is the acceptance number (target >= 4x).
//
// JSON semantics: conv and gemm entries use bytes_per_op = MACs, so
// gb_per_sec reads as GMAC/s; pack entries use the packed bytes; forward
// entries are ns per forward call; eval entries are ns per
// full-test-split evaluation.
#include <algorithm>
#include <cstring>
#include <functional>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "data/trainer.h"
#include "exp/workspace.h"
#include "qnn/engine.h"
#include "qnn/kernels.h"
#include "quant/qmodel.h"

namespace {

using namespace radar;

volatile float g_sink = 0.0f;

struct ConvCase {
  const char* name;
  qnn::ConvGeom geom;
  std::int64_t in_hw;
};

/// One conv geometry of a program, with the input map it runs on.
struct ShapeUse {
  const qnn::EngineOp* op = nullptr;  ///< first conv of this shape
  std::int64_t in_hw = 0;
  int count = 0;                      ///< ops of this shape in the program
};

/// Section 2 for one seeded network.
void engine_breakdown(const std::string& name, const nn::ResNetSpec& spec,
                      bench::JsonReport& json) {
  Rng rng(1);
  nn::ResNet net(spec, rng);
  quant::QuantizedModel qm(net);
  const std::int64_t hw = 32;
  qnn::InferenceEngine engine(qm, qnn::EngineKind::kBatched, nullptr);
  engine.calibrate(nn::Tensor::randn({16, 3, hw, hw}, rng));
  const nn::Tensor x1 = nn::Tensor::randn({1, 3, hw, hw}, rng);
  const nn::Tensor x8 = nn::Tensor::randn({8, 3, hw, hw}, rng);

  // Conv shapes of the program in order, with their input maps.
  std::vector<ShapeUse> shapes;
  std::int64_t h[3] = {0, 0, 0};
  h[engine.program().ops.front().src] = hw;
  for (const qnn::EngineOp& op : engine.program().ops) {
    if (op.kind == qnn::EngineOp::Kind::kConv) {
      const auto key = [](const qnn::ConvGeom& g, std::int64_t in) {
        return std::make_tuple(g.in_channels, g.out_channels, g.kernel,
                               g.stride, g.padding, in);
      };
      auto it = std::find_if(shapes.begin(), shapes.end(),
                             [&](const ShapeUse& u) {
                               return key(u.op->geom, u.in_hw) ==
                                      key(op.geom, h[op.src]);
                             });
      if (it == shapes.end())
        it = shapes.insert(shapes.end(), ShapeUse{&op, h[op.src], 0});
      ++it->count;
      h[op.dst] = op.geom.out_size(h[op.src]);
    } else if (op.kind == qnn::EngineOp::Kind::kPool) {
      h[op.dst] = 1;
    }
  }

  qnn::QnnScratch s1, s8;
  nn::Tensor l1, l8;
  std::vector<std::function<void()>> fns = {
      [&] { engine.forward_into(x1, s1, l1); g_sink = g_sink + l1[0]; },
      [&] { engine.forward_into(x8, s8, l8); g_sink = g_sink + l8[0]; },
  };
  struct PartBuffers {
    std::vector<std::int8_t> x;
    std::vector<std::uint8_t> stage, packed;
    std::vector<float> out;
  };
  std::vector<PartBuffers> bufs(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ShapeUse& u = shapes[i];
    const qnn::ConvGeom& g = u.op->geom;
    const std::int64_t k = g.in_channels * g.kernel * g.kernel;
    const std::int64_t p = g.out_size(u.in_hw) * g.out_size(u.in_hw);
    PartBuffers& b = bufs[i];
    b.x.resize(static_cast<std::size_t>(g.in_channels * u.in_hw * u.in_hw));
    for (auto& v : b.x)
      v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    b.stage.resize(static_cast<std::size_t>(
        qnn::pack_stage_bytes(g, u.in_hw, u.in_hw)));
    b.packed.resize(static_cast<std::size_t>(nn::packed_bytes(k, p)));
    b.out.resize(static_cast<std::size_t>(g.out_channels * p));
    const quant::QuantLayer& ql = qm.layer(u.op->qlayer);
    fns.push_back([&b, &u] {
      qnn::pack_patches_u8(b.x.data(), u.op->geom, u.in_hw, u.in_hw,
                           b.stage.data(), b.packed.data());
      g_sink = g_sink + b.packed[0];
    });
    fns.push_back([&b, &u, &ql, k, p] {
      const nn::RequantEpilogue epi{u.op->out_scale.data(), nullptr, true};
      nn::gemm_i8_packed(ql.q.data(), b.packed.data(), b.out.data(), 0,
                         u.op->geom.out_channels, k, p, k, p, epi);
      g_sink = g_sink + b.out[0];
    });
  }
  const std::vector<bench::Spread> t =
      bench::interleaved_rounds(fns, 5, 0.02);

  std::printf("\n  %s, single thread (median of 5 rounds):\n",
              name.c_str());
  std::printf("  %-34s %4s %10s %10s %9s\n", "part", "uses", "us/use",
              "us/fwd", "GMAC/s");
  bench::rule();
  std::printf("  %-34s %4s %10.1f\n", ("forward_b1/" + name).c_str(), "",
              t[0].median / 1e3);
  std::printf("  %-34s %4s %10.1f   (%.1f us/image)\n",
              ("forward_b8/" + name).c_str(), "", t[1].median / 1e3,
              t[1].median / 8e3);
  json.add_spread("forward_b1/" + name, t[0]);
  json.add_spread("forward_b8/" + name, t[1]);
  double pack_sum = 0.0, gemm_sum = 0.0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ShapeUse& u = shapes[i];
    const qnn::ConvGeom& g = u.op->geom;
    const std::int64_t k = g.in_channels * g.kernel * g.kernel;
    const std::int64_t p = g.out_size(u.in_hw) * g.out_size(u.in_hw);
    const std::string shape =
        name + "/c" + std::to_string(g.in_channels) + "x" +
        std::to_string(g.out_channels) + "_k" + std::to_string(g.kernel) +
        "_s" + std::to_string(g.stride) + "_" + std::to_string(u.in_hw);
    const bench::Spread& pack = t[2 + 2 * i];
    const bench::Spread& gemm = t[3 + 2 * i];
    const double pack_ns = pack.median, gemm_ns = gemm.median;
    const double macs = static_cast<double>(g.out_channels * k * p);
    pack_sum += u.count * pack_ns;
    gemm_sum += u.count * gemm_ns;
    std::printf("  %-34s %4d %10.1f %10.1f\n", ("pack/" + shape).c_str(),
                u.count, pack_ns / 1e3, u.count * pack_ns / 1e3);
    std::printf("  %-34s %4d %10.1f %10.1f %9.2f\n",
                ("gemm/" + shape).c_str(), u.count, gemm_ns / 1e3,
                u.count * gemm_ns / 1e3, macs / gemm_ns);
    json.add_spread("pack/" + shape, pack,
                    static_cast<double>(nn::packed_bytes(k, p)));
    json.add_spread("gemm/" + shape, gemm, macs);
  }
  const double nonconv = t[0].median - pack_sum - gemm_sum;
  std::printf("  %-34s %4s %10s %10.1f\n", "pack, all convs", "", "",
              pack_sum / 1e3);
  std::printf("  %-34s %4s %10s %10.1f\n", "gemm, all convs", "", "",
              gemm_sum / 1e3);
  std::printf("  %-34s %4s %10s %10.1f\n", ("nonconv/" + name).c_str(), "",
              "", nonconv / 1e3);
  json.add("nonconv/" + name, nonconv);
}

}  // namespace

int main() {
  bench::heading("micro_qnn", "int8 inference kernels + batched engine");
  bench::JsonReport json("qnn");
  Rng rng(7);

  // ---- section 1: conv kernel GMAC/s on ResNet-20 layer shapes ----
  const std::int64_t batch = 8;
  const std::vector<ConvCase> cases = {
      {"conv_stem_3x16_k3_32", {3, 16, 3, 1, 1}, 32},
      {"conv_s0_16x16_k3_32", {16, 16, 3, 1, 1}, 32},
      {"conv_s1_16x32_k3_s2", {16, 32, 3, 2, 1}, 32},
      {"conv_s1_32x32_k3_16", {32, 32, 3, 1, 1}, 16},
      {"conv_proj_16x32_k1_s2", {16, 32, 1, 2, 0}, 32},
      {"conv_s2_64x64_k3_8", {64, 64, 3, 1, 1}, 8},
  };
  std::printf("  %-26s %12s %12s %9s %9s %6s\n", "layer shape (batch 8)",
              "direct ns", "tiled ns", "dGMAC/s", "tGMAC/s", "x");
  bench::rule();
  for (const ConvCase& c : cases) {
    const std::int64_t hw = c.in_hw;
    const std::int64_t oh = c.geom.out_size(hw);
    const double macs =
        static_cast<double>(batch * c.geom.out_channels * oh * oh *
                            c.geom.in_channels * c.geom.kernel *
                            c.geom.kernel);
    std::vector<std::int8_t> w(static_cast<std::size_t>(
        c.geom.out_channels * c.geom.in_channels * c.geom.kernel *
        c.geom.kernel));
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    qnn::QTensor x;
    x.shape = {batch, c.geom.in_channels, hw, hw};
    x.scale = 0.02f;
    x.data.resize(static_cast<std::size_t>(x.numel()));
    for (auto& v : x.data)
      v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));

    // Bit-identity first, then time each path.
    const nn::Tensor yd = qnn::conv2d_i8(x, w, 0.01f, c.geom, {});
    const nn::Tensor yt = qnn::conv2d_i8_tiled(x, w, 0.01f, c.geom, {});
    const bool same =
        yd.shape() == yt.shape() &&
        std::memcmp(yd.data(), yt.data(),
                    sizeof(float) * static_cast<std::size_t>(yd.numel())) == 0;
    if (!same) {
      std::printf("  %-26s MISMATCH\n", c.name);
      return 1;
    }
    const double ns_direct = bench::measure_ns_per_op([&] {
      g_sink = g_sink + qnn::conv2d_i8(x, w, 0.01f, c.geom, {})[0];
    });
    qnn::QnnScratch scratch;
    nn::Tensor y;
    const double ns_tiled = bench::measure_ns_per_op([&] {
      qnn::conv2d_i8_tiled_into(x, w, 0.01f, c.geom, {}, scratch, y);
      g_sink = g_sink + y[0];
    });
    std::printf("  %-26s %12.0f %12.0f %9.2f %9.2f %5.1fx\n", c.name,
                ns_direct, ns_tiled, macs / ns_direct, macs / ns_tiled,
                ns_direct / ns_tiled);
    json.add(std::string(c.name) + "_direct", ns_direct, macs);
    json.add(std::string(c.name) + "_tiled", ns_tiled, macs);
  }

  // ---- section 2: engine breakdown at paper model sizes ----
  bench::rule();
  std::printf("  engine breakdown (SIMD level %s)\n",
              cpu::level_name(cpu::active_level()));
  engine_breakdown("resnet20", nn::ResNetSpec::resnet20(10), json);
  engine_breakdown("resnet18", nn::ResNetSpec::resnet18(20, 64), json);
  bench::note(
      "nonconv = forward_b1 - sum over convs of pack + gemm: quantize, "
      "residual add, pool, linear and op dispatch");

  // ---- section 3: end-to-end eval path on the trained tiny bundle ----
  exp::ModelBundle bundle = exp::load_or_train("tiny");
  const std::int64_t test_n = bundle.dataset->test_size();
  const std::int64_t calib_n = std::min<std::int64_t>(128, test_n);
  const nn::Tensor calib = bundle.dataset->test_batch(0, calib_n).images;
  qnn::InferenceEngine ref(*bundle.qmodel, qnn::EngineKind::kReference);
  qnn::InferenceEngine bat(*bundle.qmodel, qnn::EngineKind::kBatched);
  ref.calibrate(calib);
  bat.calibrate(calib);

  // Logit byte-identity over the whole test split.
  const nn::Tensor all = bundle.dataset->test_batch(0, test_n).images;
  const nn::Tensor lref = ref.forward(all);
  const nn::Tensor lbat = bat.forward(all);
  const bool identical =
      lref.shape() == lbat.shape() &&
      std::memcmp(lref.data(), lbat.data(),
                  sizeof(float) *
                      static_cast<std::size_t>(lref.numel())) == 0;

  const double acc_ref = data::evaluate(ref, *bundle.dataset, 64);
  const double acc_bat = data::evaluate(bat, *bundle.dataset, 64);
  // Best-of-3 (like micro_scan): the shared-core dev/CI boxes are noisy
  // and the acceptance ratio should reflect kernel speed, not scheduler
  // luck.
  double ns_ref = 1e30, ns_bat = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    ns_ref = std::min(ns_ref, bench::measure_ns_per_op([&] {
               g_sink = g_sink + static_cast<float>(data::evaluate(
                                     ref, *bundle.dataset, 64));
             }));
    ns_bat = std::min(ns_bat, bench::measure_ns_per_op([&] {
               g_sink = g_sink + static_cast<float>(data::evaluate(
                                     bat, *bundle.dataset, 64));
             }));
  }
  const double ips_ref = 1e9 * static_cast<double>(test_n) / ns_ref;
  const double ips_bat = 1e9 * static_cast<double>(test_n) / ns_bat;
  const double speedup = ns_ref / ns_bat;
  bench::rule();
  std::printf("  trained tiny eval path (%lld images, batch 64):\n",
              static_cast<long long>(test_n));
  std::printf("  %-28s %12.2f ms  (%8.0f images/sec, acc %.2f%%)\n",
              "eval_direct_conv", 1e-6 * ns_ref, ips_ref, 100.0 * acc_ref);
  std::printf("  %-28s %12.2f ms  (%8.0f images/sec, acc %.2f%%)\n",
              "eval_batched_engine", 1e-6 * ns_bat, ips_bat, 100.0 * acc_bat);
  std::printf("  %-28s %12.2fx\n", "eval_speedup", speedup);
  std::printf("  logits byte-identical: %s\n", identical ? "yes" : "NO");
  json.add("eval_direct_conv", ns_ref, static_cast<double>(test_n));
  json.add("eval_batched_engine", ns_bat, static_cast<double>(test_n));
  bench::note(
      "claim reproduced if eval_speedup >= 4 and logits are byte-identical "
      "(direct-conv engine reproduces the pre-PR qnn kernels)");
  json.write();
  return identical && acc_ref == acc_bat ? 0 : 1;
}
