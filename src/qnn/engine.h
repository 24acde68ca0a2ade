// Batched int8 inference engine: executes a quantized network the way the
// paper's integer deployment target would.
//
// The engine is two parts with a plain value between them:
//
//   compile + calibrate  compile_program() walks the ResNet layer graph
//                        once into a flat EngineProgram: every Conv2d
//                        absorbs its following BatchNorm2d (and a directly
//                        following ReLU) into a per-channel requantization
//                        epilogue, a BasicBlock expands into two convs +
//                        optional projection + fused add-ReLU, and the head
//                        becomes global-avg-pool + linear. calibrate() then
//                        fixes each op's activation scale on a clean batch.
//   run                  forward_into() executes a calibrated program
//                        against a live QuantizedModel.
//
// The program holds no weights and no float graph: conv / fc weights are
// read live from the QuantizedModel's int8 arena at every forward, so bit
// flips and recoveries are visible without any re-preparation, while the
// folded batch-norm constants, biases and activation scales are frozen in
// the program (BN and biases are not attackable in the threat model, and
// scales come from a one-time static calibration on the clean model). A
// signed package stores the calibrated program (core/package.h), so a
// serving host builds its engine from it without the float network that
// produced it; campaigns compile and calibrate in process. Both run the
// same forward path, so their logits are bit-identical.
//
// Two interchangeable conv kernels:
//   kReference — the pre-existing direct 7-loop convolution, per sample;
//   kBatched   — each sample's activations packed as a k-quad u8 patch
//                matrix (nn/int8_gemm.h) feeding the register-tiled
//                int8 -> int32 GEMM (VNNI vpdpbusd / AVX2 / scalar) with
//                fused bias+requant(+ReLU) epilogue, parallelized over
//                batch x output-channel blocks through the ThreadPool.
// Both kinds compute identical int32 accumulators and evaluate the same
// epilogue expression per output, so logits are bit-identical across
// kinds, thread counts and batch partitionings — campaign reports built
// on this engine can therefore be CI-diffed byte-for-byte.
//
// forward_into draws every intermediate buffer from a caller QnnScratch:
// after warm-up (first call at the largest batch size) the steady-state
// forward loop performs zero heap allocations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/int8_gemm.h"
#include "nn/tensor.h"
#include "qnn/kernels.h"
#include "qnn/qnn_scratch.h"
#include "quant/qmodel.h"

namespace radar {
class ThreadPool;
}

namespace radar::qnn {

enum class EngineKind {
  kReference,  ///< direct convolution (pre-existing kernel semantics)
  kBatched,    ///< k-quad packing + tiled GEMM + fused requant epilogue
};

/// One op of an engine program. Activations live in three ping-pong
/// buffers (ids 0..2); the final linear writes the logits (dst -1).
struct EngineOp {
  enum class Kind : std::uint8_t { kConv, kLinear, kAdd, kRelu, kPool, kFlatten };
  Kind kind = Kind::kConv;
  ConvGeom geom;                 ///< conv only
  std::size_t qlayer = 0;        ///< conv/linear: QuantizedModel layer index
  std::int64_t in_features = 0;  ///< linear only
  std::int64_t out_features = 0;
  bool relu = false;             ///< fused trailing ReLU (conv, add)
  int src = 0;                   ///< input buffer id
  int src2 = -1;                 ///< kAdd: second operand buffer id
  int dst = 0;                   ///< output buffer id (-1 = logits)
  float x_scale = 0.0f;          ///< calibrated input activation scale
  /// Per-output-channel epilogue, out = acc * out_scale + out_bias
  /// (conv/linear). out_bias is final at compile time; out_scale holds the
  /// folded batch-norm multiplier until calibration multiplies in the
  /// activation and weight scales.
  std::vector<float> out_scale, out_bias;
};

/// A compiled op program: everything the engine needs besides the live
/// int8 weights.
struct EngineProgram {
  std::vector<EngineOp> ops;
  std::int64_t in_channels = 0;
  std::int64_t num_classes = 0;
  std::int64_t calib_images = 0;  ///< calibration batch size (0: none yet)

  bool calibrated() const { return calib_images > 0; }
};

/// Compiles the (uncalibrated) op program of `model`'s network graph.
EngineProgram compile_program(const quant::QuantizedModel& model);

/// Why a calibrated `program` cannot run against a model whose quantized
/// layers hold `layer_sizes` weights, or nullptr when it can: op wiring,
/// buffer ids, conv geometry against the layer size, epilogue lengths and
/// scales are all checked, so a program read from disk that passes never
/// indexes outside a weight layer or an activation buffer; and every conv
/// and linear reduction depth is at most nn::kInt8GemmMaxK, the depth at
/// which the packed conv tiles' biased u8 x s8 sums still fit in int32.
const char* program_defect(const EngineProgram& program,
                           std::span<const std::int64_t> layer_sizes);
/// program_defect against the layers of `model`.
const char* program_defect(const EngineProgram& program,
                           const quant::QuantizedModel& model);

class InferenceEngine {
 public:
  /// Compiles the op program from `model`'s network graph (calibrate()
  /// before the first forward). `pool` may be null (serial); a pool of
  /// size 1 also runs inline (and is then allocation-free, like null).
  explicit InferenceEngine(const quant::QuantizedModel& model,
                           EngineKind kind = EngineKind::kBatched,
                           ThreadPool* pool = nullptr);

  /// A ready engine from an already calibrated program (a package's
  /// engine section). Throws InvalidArgument when program_defect()
  /// rejects it against `model`.
  InferenceEngine(const quant::QuantizedModel& model, EngineProgram program,
                  EngineKind kind = EngineKind::kBatched,
                  ThreadPool* pool = nullptr);

  /// One-time static calibration: runs `batch` through the program,
  /// fixing each conv/linear input scale to max|activation| / 127 (with
  /// int8 effects propagated layer by layer). Must be called on the CLEAN
  /// model — scales are frozen afterwards so results stay independent of
  /// later attacks, batch splits and thread counts.
  void calibrate(const nn::Tensor& batch);
  bool calibrated() const { return program_.calibrated(); }

  /// The op program (calibrated once calibrate() ran).
  const EngineProgram& program() const { return program_; }

  EngineKind kind() const { return kind_; }
  void set_kind(EngineKind kind) { kind_ = kind; }
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  std::int64_t num_classes() const { return program_.num_classes; }

  /// Batched forward of NCHW `x` into `logits`; all working memory comes
  /// from `scratch` (zero allocations after warm-up). `logits` is grown
  /// to at least [N, classes] but never shrunk — after a larger batch,
  /// only its first N rows are valid (read the row count from the input
  /// batch, not from logits.dim(0)). Requires calibrate() first.
  void forward_into(const nn::Tensor& x, QnnScratch& scratch,
                    nn::Tensor& logits) const;

  /// Convenience wrapper (allocates a scratch + logits).
  nn::Tensor forward(const nn::Tensor& x) const;

 private:
  /// The one forward path. `calib` is null for a forward and &program_
  /// while calibrating: each conv/linear then fixes its scales from its
  /// input before running with them.
  void run(const nn::Tensor& x, QnnScratch& scratch, nn::Tensor& logits,
           EngineProgram* calib) const;
  void run_conv(const EngineOp& op, EngineOp* calib, std::int64_t n,
                std::int64_t in_h, std::int64_t in_w,
                QnnScratch& scratch) const;
  void run_linear(const EngineOp& op, EngineOp* calib, std::int64_t n,
                  std::int64_t in_features, const float* src, float* dst,
                  QnnScratch& scratch) const;

  const quant::QuantizedModel* model_;
  EngineKind kind_;
  ThreadPool* pool_;
  EngineProgram program_;
};

/// compile_program + calibrate on `batch`: the calibrated program a
/// package signs.
EngineProgram calibrated_program(const quant::QuantizedModel& model,
                                 const nn::Tensor& batch);

}  // namespace radar::qnn
