#include "qnn/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/thread_pool.h"
#include "nn/resnet.h"

namespace radar::qnn {

namespace {

/// Static calibration of one conv/linear op from its input activations:
/// x_scale = max|x| / 127, and the epilogue scale (holding the folded BN
/// multiplier until now) gains the activation and weight scales.
void calibrate_op(EngineOp& op, const float* x, std::int64_t count,
                  float w_scale) {
  float amax = 0.0f;
  for (std::int64_t i = 0; i < count; ++i)
    amax = std::max(amax, std::fabs(x[i]));
  op.x_scale = amax > 0.0f ? amax / 127.0f : 1.0f;
  for (float& s : op.out_scale) s = op.x_scale * w_scale * s;
}

using Kind = EngineOp::Kind;

std::size_t qlayer_of(const quant::QuantizedModel& model,
                      const nn::Param& weight) {
  for (std::size_t i = 0; i < model.num_layers(); ++i)
    if (model.layer(i).param == &weight) return i;
  throw InvalidArgument("qnn engine: weight tensor is not quantized");
}

/// Builds the op program of one network graph.
class Compiler {
 public:
  explicit Compiler(const quant::QuantizedModel& model) : model_(model) {}

  EngineProgram compile(const nn::Sequential& net) {
    int cur = 0;
    for (std::size_t i = 0; i < net.size(); ++i) {
      const nn::Layer& child = net.child(i);
      const std::string kind = child.kind();
      if (kind == "Conv2d") {
        const auto* conv = dynamic_cast<const nn::Conv2d*>(&child);
        RADAR_REQUIRE(conv != nullptr, "Conv2d kind mismatch");
        const nn::BatchNorm2d* bn = nullptr;
        if (i + 1 < net.size() && net.child(i + 1).kind() == "BatchNorm2d") {
          bn = dynamic_cast<const nn::BatchNorm2d*>(&net.child(i + 1));
          ++i;
        }
        bool relu = false;
        if (i + 1 < net.size() && net.child(i + 1).kind() == "ReLU") {
          relu = true;
          ++i;
        }
        const int dst = (cur + 1) % 3;
        push_conv(*conv, bn, relu, cur, dst);
        cur = dst;
      } else if (kind == "BasicBlock") {
        const auto* bb = dynamic_cast<const nn::BasicBlock*>(&child);
        RADAR_REQUIRE(bb != nullptr, "BasicBlock kind mismatch");
        const int a = cur, b = (cur + 1) % 3, c = (cur + 2) % 3;
        push_conv(bb->conv1(), &bb->bn1(), /*relu=*/true, a, b);
        push_conv(bb->conv2(), &bb->bn2(), /*relu=*/false, b, c);
        EngineOp add;
        add.kind = Kind::kAdd;
        add.relu = true;  // post-add ReLU of the residual block
        add.src = c;
        add.dst = c;
        if (bb->has_projection()) {
          push_conv(*bb->down_conv(), bb->down_bn(), /*relu=*/false, a, b);
          add.src2 = b;
        } else {
          add.src2 = a;
        }
        p_.ops.push_back(std::move(add));
        cur = c;
      } else if (kind == "ReLU") {
        EngineOp op;
        op.kind = Kind::kRelu;
        op.src = op.dst = cur;
        p_.ops.push_back(std::move(op));
      } else if (kind == "GlobalAvgPool") {
        EngineOp op;
        op.kind = Kind::kPool;
        op.src = cur;
        op.dst = (cur + 1) % 3;
        cur = op.dst;
        p_.ops.push_back(std::move(op));
      } else if (kind == "Flatten") {
        EngineOp op;
        op.kind = Kind::kFlatten;
        op.src = op.dst = cur;
        p_.ops.push_back(std::move(op));
      } else if (kind == "Linear") {
        const auto* lin = dynamic_cast<const nn::Linear*>(&child);
        RADAR_REQUIRE(lin != nullptr, "Linear kind mismatch");
        RADAR_REQUIRE(lin->in_features() <= nn::kInt8GemmMaxK,
                      "linear reduction depth overflows int32 accumulation");
        EngineOp op;
        op.kind = Kind::kLinear;
        op.qlayer = qlayer_of(model_, lin->weight());
        op.in_features = lin->in_features();
        op.out_features = lin->out_features();
        const auto m = static_cast<std::size_t>(op.out_features);
        op.out_scale.assign(m, 1.0f);
        op.out_bias.assign(m, 0.0f);
        if (lin->has_bias())
          std::copy(lin->bias().value.data(),
                    lin->bias().value.data() + m, op.out_bias.begin());
        op.src = cur;
        op.dst = (i + 1 == net.size()) ? -1 : (cur + 1) % 3;
        if (op.dst >= 0) cur = op.dst;
        p_.num_classes = lin->out_features();
        p_.ops.push_back(std::move(op));
      } else {
        throw InvalidArgument("qnn engine: unsupported layer kind " + kind);
      }
    }
    RADAR_REQUIRE(!p_.ops.empty(), "qnn engine: empty network");
    RADAR_REQUIRE(p_.ops.front().kind == Kind::kConv,
                  "qnn engine: network must start with a convolution");
    p_.in_channels = p_.ops.front().geom.in_channels;
    return std::move(p_);
  }

 private:
  void push_conv(const nn::Conv2d& conv, const nn::BatchNorm2d* bn,
                 bool relu, int src, int dst) {
    EngineOp op;
    op.kind = Kind::kConv;
    op.geom = ConvGeom{conv.in_channels(), conv.out_channels(),
                       conv.kernel(), conv.stride(), conv.padding()};
    RADAR_REQUIRE(op.geom.in_channels * op.geom.kernel * op.geom.kernel <=
                      nn::kInt8GemmMaxK,
                  "conv reduction depth overflows int32 accumulation");
    op.qlayer = qlayer_of(model_, conv.weight());
    const auto co = static_cast<std::size_t>(op.geom.out_channels);
    if (bn != nullptr)
      RADAR_REQUIRE(bn->channels() == op.geom.out_channels,
                    "batch-norm width mismatch");
    // Fold BN (multiplier a, shift) and the conv bias cb into the
    // epilogue: out = acc * (x_scale * w_scale * a) + (cb * a + shift).
    // The multiplier waits in out_scale for the calibrated scales.
    op.out_scale.resize(co);
    op.out_bias.resize(co);
    for (std::size_t c = 0; c < co; ++c) {
      const auto ci = static_cast<std::int64_t>(c);
      float a = 1.0f, shift = 0.0f;
      if (bn != nullptr) {
        a = bn->gamma().value[ci] /
            std::sqrt(bn->running_var()[ci] + bn->eps());
        shift = bn->beta().value[ci] - bn->running_mean()[ci] * a;
      }
      const float cb = conv.has_bias() ? conv.bias().value[ci] : 0.0f;
      op.out_scale[c] = a;
      op.out_bias[c] = cb * a + shift;
    }
    op.relu = relu;
    op.src = src;
    op.dst = dst;
    p_.ops.push_back(std::move(op));
  }

  const quant::QuantizedModel& model_;
  EngineProgram p_;
};

bool valid_buffer(int id) { return id >= 0 && id < 3; }

/// True when weight layer `q` exists and holds exactly `width` rows of
/// `depth` weights (division, so corrupt shapes cannot overflow).
bool fits_layer(std::span<const std::int64_t> sizes, std::size_t q,
                std::int64_t depth, std::int64_t width) {
  return q < sizes.size() && sizes[q] % depth == 0 &&
         sizes[q] / depth == width;
}

/// Largest conv kernel / stride a program may declare (ResNets use 1 and
/// 3); bounds the geometry products before they can overflow.
constexpr std::int64_t kMaxKernel = 16;

}  // namespace

EngineProgram compile_program(const quant::QuantizedModel& model) {
  return Compiler(model).compile(model.network().net());
}

const char* program_defect(const EngineProgram& p,
                           std::span<const std::int64_t> layer_sizes) {
  if (p.ops.empty()) return "empty op program";
  if (!p.calibrated()) return "op program is not calibrated";
  if (p.ops.front().kind != Kind::kConv ||
      p.in_channels != p.ops.front().geom.in_channels)
    return "op program must start with a convolution over its input";
  const EngineOp& last = p.ops.back();
  if (last.kind != Kind::kLinear || last.dst != -1 ||
      p.num_classes != last.out_features)
    return "op program must end in the logits linear";
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const EngineOp& op = p.ops[i];
    const bool logits = i + 1 == p.ops.size();
    if (!valid_buffer(op.src) || !(valid_buffer(op.dst) || logits))
      return "op buffer id out of range";
    std::int64_t width = 0;  // output channels of a conv/linear
    switch (op.kind) {
      case Kind::kConv: {
        const ConvGeom& g = op.geom;
        if (g.in_channels < 1 || g.out_channels < 1 || g.kernel < 1 ||
            g.kernel > kMaxKernel || g.stride < 1 || g.stride > kMaxKernel ||
            g.padding < 0 || g.padding >= g.kernel)
          return "conv geometry out of range";
        if (g.in_channels > nn::kInt8GemmMaxK / (g.kernel * g.kernel))
          return "conv reduction depth overflows int32 accumulation";
        if (!fits_layer(layer_sizes, op.qlayer,
                        g.in_channels * g.kernel * g.kernel, g.out_channels))
          return "conv geometry does not match its weight layer";
        width = g.out_channels;
        if (op.src == op.dst) return "conv reads and writes one buffer";
        break;
      }
      case Kind::kLinear:
        if (op.in_features < 1 || op.in_features > nn::kInt8GemmMaxK ||
            op.out_features < 1)
          return "linear shape out of range";
        if (!fits_layer(layer_sizes, op.qlayer, op.in_features,
                        op.out_features))
          return "linear shape does not match its weight layer";
        width = op.out_features;
        if (op.src == op.dst) return "linear reads and writes one buffer";
        break;
      case Kind::kAdd:
        if (op.src != op.dst || !valid_buffer(op.src2) || op.src2 == op.dst)
          return "residual add wiring out of range";
        break;
      case Kind::kPool:
        if (op.src == op.dst) return "pool reads and writes one buffer";
        break;
      case Kind::kRelu:
      case Kind::kFlatten:
        if (op.src != op.dst) return "in-place op with two buffers";
        break;
      default:
        return "unknown op kind";
    }
    if (width > 0) {
      if (op.out_scale.size() != static_cast<std::size_t>(width) ||
          op.out_bias.size() != static_cast<std::size_t>(width))
        return "epilogue length does not match the op width";
      if (!(op.x_scale > 0.0f) || !std::isfinite(op.x_scale))
        return "activation scale is not a positive finite number";
    } else if (!op.out_scale.empty() || !op.out_bias.empty()) {
      return "epilogue on an op without weights";
    }
  }
  return nullptr;
}

const char* program_defect(const EngineProgram& p,
                           const quant::QuantizedModel& model) {
  std::vector<std::int64_t> sizes(model.num_layers());
  for (std::size_t i = 0; i < sizes.size(); ++i)
    sizes[i] = model.layer(i).size();
  return program_defect(p, sizes);
}

InferenceEngine::InferenceEngine(const quant::QuantizedModel& model,
                                 EngineKind kind, ThreadPool* pool)
    : model_(&model), kind_(kind), pool_(pool),
      program_(compile_program(model)) {}

InferenceEngine::InferenceEngine(const quant::QuantizedModel& model,
                                 EngineProgram program, EngineKind kind,
                                 ThreadPool* pool)
    : model_(&model), kind_(kind), pool_(pool), program_(std::move(program)) {
  if (const char* defect = program_defect(program_, model))
    throw InvalidArgument(std::string("qnn engine: ") + defect);
}

void InferenceEngine::run_conv(const EngineOp& op, EngineOp* calib,
                               std::int64_t n, std::int64_t in_h,
                               std::int64_t in_w, QnnScratch& scratch) const {
  const std::int64_t ci = op.geom.in_channels, co = op.geom.out_channels;
  const std::int64_t csz = ci * in_h * in_w;
  const std::int64_t oh = op.geom.out_size(in_h),
                     ow = op.geom.out_size(in_w);
  RADAR_REQUIRE(oh > 0 && ow > 0, "conv output collapses to zero size");
  const std::int64_t osp = oh * ow;
  const quant::QuantLayer& ql = model_->layer(op.qlayer);
  const float* src = scratch.act[op.src].data();
  float* dst =
      scratch.ensure(scratch.act[op.dst],
                     static_cast<std::size_t>(n * co * osp));

  if (calib != nullptr) calibrate_op(*calib, src, n * csz, ql.scale);
  const float inv_x_scale = 1.0f / op.x_scale;

  std::int8_t* qact =
      scratch.ensure(scratch.qact, static_cast<std::size_t>(n * csz));
  ThreadPool::chunks_or_inline(pool_, static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        quantize_activations_into(
            src + begin * static_cast<std::size_t>(csz),
            (end - begin) * static_cast<std::size_t>(csz), inv_x_scale,
            qact + begin * static_cast<std::size_t>(csz));
      });

  const nn::RequantEpilogue epi{op.out_scale.data(), op.out_bias.data(),
                                op.relu};
  if (kind_ == EngineKind::kReference) {
    ThreadPool::chunks_or_inline(pool_, static_cast<std::size_t>(n),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s)
            direct_conv_i8(qact + static_cast<std::int64_t>(s) * csz,
                           ql.q.data(), op.geom, in_h, in_w, epi,
                           dst + static_cast<std::int64_t>(s) * co * osp);
        });
    return;
  }
  conv2d_i8_tiled_exec(
      qact, std::span<const std::int8_t>(ql.q.data(), ql.q.size()), op.geom,
      n, in_h, in_w, epi, scratch, dst, pool_);
}

void InferenceEngine::run_linear(const EngineOp& op, EngineOp* calib,
                                 std::int64_t n, std::int64_t in_features,
                                 const float* src, float* dst,
                                 QnnScratch& scratch) const {
  RADAR_REQUIRE(in_features == op.in_features,
                "linear input feature mismatch");
  const quant::QuantLayer& ql = model_->layer(op.qlayer);
  const std::int64_t f = op.in_features, m = op.out_features;
  if (calib != nullptr) calibrate_op(*calib, src, n * f, ql.scale);
  const float inv_x_scale = 1.0f / op.x_scale;
  std::int8_t* qact =
      scratch.ensure(scratch.qact, static_cast<std::size_t>(n * f));
  ThreadPool::chunks_or_inline(pool_, static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        quantize_activations_into(
            src + begin * static_cast<std::size_t>(f),
            (end - begin) * static_cast<std::size_t>(f), inv_x_scale,
            qact + begin * static_cast<std::size_t>(f));
      });
  const nn::RequantEpilogue epi{op.out_scale.data(), op.out_bias.data(),
                                op.relu};
  auto rows = [&](std::size_t begin, std::size_t end) {
    nn::gemm_i8_dot(qact, ql.q.data(), dst,
                    static_cast<std::int64_t>(begin),
                    static_cast<std::int64_t>(end), m, f, f, f, m, epi);
  };
  if (kind_ == EngineKind::kBatched)
    ThreadPool::chunks_or_inline(pool_, static_cast<std::size_t>(n), rows);
  else
    rows(0, static_cast<std::size_t>(n));
}

void InferenceEngine::run(const nn::Tensor& x, QnnScratch& scratch,
                          nn::Tensor& logits, EngineProgram* calib) const {
  RADAR_REQUIRE(x.rank() == 4, "qnn engine input must be NCHW");
  RADAR_REQUIRE(x.dim(1) == program_.in_channels, "input channel mismatch");
  const std::int64_t n = x.dim(0);
  RADAR_REQUIRE(n > 0, "empty batch");

  std::int64_t C[3] = {0, 0, 0}, H[3] = {0, 0, 0}, W[3] = {0, 0, 0};
  const int in_buf = program_.ops.front().src;
  float* b0 = scratch.ensure(scratch.act[in_buf],
                             static_cast<std::size_t>(x.numel()));
  std::memcpy(b0, x.data(), sizeof(float) *
                                static_cast<std::size_t>(x.numel()));
  C[in_buf] = x.dim(1);
  H[in_buf] = x.dim(2);
  W[in_buf] = x.dim(3);

  int final_buf = in_buf;
  for (std::size_t i = 0; i < program_.ops.size(); ++i) {
    const EngineOp& op = program_.ops[i];
    EngineOp* op_calib = calib != nullptr ? &calib->ops[i] : nullptr;
    switch (op.kind) {
      case Kind::kConv: {
        RADAR_REQUIRE(C[op.src] == op.geom.in_channels,
                      "conv channel mismatch in op program");
        run_conv(op, op_calib, n, H[op.src], W[op.src], scratch);
        C[op.dst] = op.geom.out_channels;
        H[op.dst] = op.geom.out_size(H[op.src]);
        W[op.dst] = op.geom.out_size(W[op.src]);
        final_buf = op.dst;
        break;
      }
      case Kind::kAdd: {
        RADAR_REQUIRE(C[op.dst] == C[op.src2] && H[op.dst] == H[op.src2] &&
                          W[op.dst] == W[op.src2],
                      "residual shape mismatch");
        float* d = scratch.act[op.dst].data();
        const float* s2 = scratch.act[op.src2].data();
        const std::int64_t m = n * C[op.dst] * H[op.dst] * W[op.dst];
        if (op.relu) {
          for (std::int64_t i = 0; i < m; ++i) {
            const float v = d[i] + s2[i];
            d[i] = v < 0.0f ? 0.0f : v;
          }
        } else {
          for (std::int64_t i = 0; i < m; ++i) d[i] += s2[i];
        }
        final_buf = op.dst;
        break;
      }
      case Kind::kRelu: {
        float* d = scratch.act[op.src].data();
        const std::int64_t m = n * C[op.src] * H[op.src] * W[op.src];
        for (std::int64_t i = 0; i < m; ++i)
          if (d[i] < 0.0f) d[i] = 0.0f;
        final_buf = op.src;
        break;
      }
      case Kind::kPool: {
        const std::int64_t c = C[op.src], sp = H[op.src] * W[op.src];
        const float inv = 1.0f / static_cast<float>(sp);
        const float* s = scratch.act[op.src].data();
        float* d = scratch.ensure(scratch.act[op.dst],
                                  static_cast<std::size_t>(n * c));
        for (std::int64_t i = 0; i < n * c; ++i) {
          const float* row = s + i * sp;
          float acc = 0.0f;
          for (std::int64_t p = 0; p < sp; ++p) acc += row[p];
          d[i] = acc * inv;
        }
        C[op.dst] = c;
        H[op.dst] = W[op.dst] = 1;
        final_buf = op.dst;
        break;
      }
      case Kind::kFlatten: {
        C[op.src] = C[op.src] * H[op.src] * W[op.src];
        H[op.src] = W[op.src] = 1;
        final_buf = op.src;
        break;
      }
      case Kind::kLinear: {
        const std::int64_t f = C[op.src] * H[op.src] * W[op.src];
        float* out;
        if (op.dst < 0) {
          // Grow-only: a logits buffer from a larger batch is reused for a
          // smaller one (only the first n rows are written), so remainder
          // batches stay allocation-free.
          if (logits.rank() != 2 || logits.dim(0) < n ||
              logits.dim(1) != op.out_features)
            logits = nn::Tensor({n, op.out_features});
          out = logits.data();
        } else {
          out = scratch.ensure(
              scratch.act[op.dst],
              static_cast<std::size_t>(n * op.out_features));
          C[op.dst] = op.out_features;
          H[op.dst] = W[op.dst] = 1;
          final_buf = op.dst;
        }
        run_linear(op, op_calib, n, f, scratch.act[op.src].data(), out,
                   scratch);
        if (op.dst < 0) return;
        break;
      }
    }
  }
  // Program did not end in a logits-producing linear: hand back the final
  // activation as [N, features].
  const std::int64_t feat = C[final_buf] * H[final_buf] * W[final_buf];
  if (logits.rank() != 2 || logits.dim(0) < n || logits.dim(1) != feat)
    logits = nn::Tensor({n, feat});
  std::memcpy(logits.data(), scratch.act[final_buf].data(),
              sizeof(float) * static_cast<std::size_t>(n * feat));
}

void InferenceEngine::calibrate(const nn::Tensor& batch) {
  RADAR_REQUIRE(!calibrated(), "qnn engine already calibrated");
  QnnScratch scratch;
  nn::Tensor logits;
  run(batch, scratch, logits, &program_);
  program_.calib_images = batch.dim(0);
}

void InferenceEngine::forward_into(const nn::Tensor& x, QnnScratch& scratch,
                                   nn::Tensor& logits) const {
  RADAR_REQUIRE(calibrated(), "qnn engine: calibrate() before forward");
  run(x, scratch, logits, nullptr);
}

nn::Tensor InferenceEngine::forward(const nn::Tensor& x) const {
  QnnScratch scratch;
  nn::Tensor logits;
  forward_into(x, scratch, logits);
  return logits;
}

EngineProgram calibrated_program(const quant::QuantizedModel& model,
                                 const nn::Tensor& batch) {
  InferenceEngine engine(model);
  engine.calibrate(batch);
  return engine.program();
}

}  // namespace radar::qnn
