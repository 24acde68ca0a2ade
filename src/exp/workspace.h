// Shared experiment workspace: trained-model and attack-profile caches.
//
// Every bench binary reproduces one table/figure; they all need the same
// two trained quantized models and the same PBFA profiles. The first
// binary to run trains/attacks and writes the cache (under RADAR_CACHE_DIR,
// default ./.model_cache); the rest load it. All artifacts are
// deterministic in the seeds, so the cache is stable across runs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "attack/attack_types.h"
#include "attack/pbfa.h"
#include "core/scheme.h"
#include "data/synthetic.h"
#include "data/trainer.h"
#include "qnn/engine.h"
#include "quant/qmodel.h"

namespace radar::exp {

/// A trained, quantized model with its dataset.
struct ModelBundle {
  std::string id;  ///< "resnet20" | "resnet18"
  nn::ResNetSpec spec;
  std::unique_ptr<nn::ResNet> model;
  /// Rendered lazily (data::SyntheticDataset): a bundle that never reads
  /// it pays nothing for its pixels, and one that reads only the first
  /// test images (engine calibration) renders only those. Shared and
  /// immutable, so campaign worker replicas read the primary's copy.
  std::shared_ptr<const data::SyntheticDataset> dataset;
  std::unique_ptr<quant::QuantizedModel> qmodel;
  double clean_accuracy = 0.0;  ///< quantized model, full test split

  // ---- quantized inference engine (the eval hot path) ----
  // Accuracy evaluations run the int8 deployment artifact through
  // qnn::InferenceEngine (built and statically calibrated once on the
  // clean model by ensure_engine). Results are bit-identical across
  // engine kinds, thread counts and eval batch sizes, so the knobs below
  // never change report contents.
  std::unique_ptr<qnn::InferenceEngine> engine;
  qnn::EngineKind engine_kind = qnn::EngineKind::kBatched;
  std::int64_t eval_batch = 0;   ///< images per forward batch (<=0: auto)
  std::int64_t eval_images = 0;  ///< images actually forwarded (timing)
  qnn::QnnScratch eval_scratch;  ///< reused engine working memory
  nn::Tensor eval_logits;        ///< reused logits buffer
  /// Cached eval-subset input batches (keyed by subset / batch size).
  std::vector<data::Batch> eval_batches;
  std::int64_t cached_subset = -1, cached_batch = -1;
  /// Clean-model eval cache: accuracy on the first clean_subset test
  /// images. accuracy_on_subset reuses it whenever the dirty log proves
  /// the model is back at its clean baseline (e.g. after a full
  /// reload-clean recovery), skipping the forward passes entirely.
  std::int64_t clean_subset = -1;
  double clean_subset_acc = 0.0;
  /// Group-size scale: the paper's G values assume the full-size network;
  /// the reduced-width stand-in has ~1/group_scale of its weights, so a
  /// paper configuration "G" corresponds to G / group_scale here
  /// (preserving groups-per-layer, which is what detection/recovery
  /// granularity actually depends on). 1 for the full-size ResNet-20.
  std::int64_t group_scale = 1;

  /// Reduced-model group size equivalent to the paper's `paper_g`.
  std::int64_t scaled_group(std::int64_t paper_g) const {
    return std::max<std::int64_t>(4, paper_g / group_scale);
  }

  /// Weight counts per quantized layer (for profile statistics).
  std::vector<std::int64_t> layer_sizes() const;
};

/// Load from cache or train: "resnet20" (CIFAR-10 stand-in), "resnet18"
/// (ImageNet stand-in, reduced width — see nn/resnet.h), or "tiny"
/// (seconds-scale bundle for tests and demos).
ModelBundle load_or_train(const std::string& id);

/// General bundle factory. `train = false` keeps the freshly initialized
/// weights and never touches the checkpoint cache, so results are
/// reproducible regardless of cache state (campaign differential / fuzz
/// tests). `eval_clean = false` skips the clean-accuracy evaluation
/// (clean_accuracy stays -1), for detection-only workloads. The dataset
/// renders no pixels until first read, so an untrained bundle built
/// without eval_clean costs only the model init and quantization.
ModelBundle make_bundle(const std::string& id, bool train = true,
                        bool eval_clean = true);

/// ModelBundle::group_scale for `id` without building the bundle (for
/// declaring campaign specs in paper-G terms).
std::int64_t group_scale_for(const std::string& id);

/// Reduced-model group size for the paper's `paper_g` on model `id` —
/// ModelBundle::scaled_group without building the bundle.
std::int64_t paper_group(const std::string& id, std::int64_t paper_g);

/// Load from cache or run `rounds` PBFA rounds of `n_bf` flips each.
/// Each round starts from the clean snapshot, uses a round-specific attack
/// batch, and records post-attack accuracy on a test subset.
std::vector<attack::AttackResult> load_or_run_pbfa(ModelBundle& bundle,
                                                   int n_bf, int rounds,
                                                   const std::string& tag = "",
                                                   int eval_subset = 512);

/// Like load_or_run_pbfa but for the §VIII knowledgeable attacker: each
/// round commits `n_primary` PBFA flips plus canceling decoy pairs under
/// the attacker's assumed contiguous group size.
std::vector<attack::AttackResult> load_or_run_knowledgeable(
    ModelBundle& bundle, int n_primary, int rounds,
    std::int64_t assumed_group_size, int eval_subset = 256);

/// Like load_or_run_pbfa but restricted to the given bit positions (e.g.
/// {6} for the §VIII MSB-1 attacker).
std::vector<attack::AttackResult> load_or_run_restricted_pbfa(
    ModelBundle& bundle, int n_bf, int rounds, std::vector<int> allowed_bits,
    const std::string& tag, int eval_subset = 256);

/// Build + statically calibrate the bundle's int8 inference engine if not
/// already done. Must be called while the quantized model holds its CLEAN
/// weights (activation scales are frozen from this state); every
/// accuracy-evaluating helper calls it eagerly at entry for that reason.
void ensure_engine(ModelBundle& bundle);

/// Accuracy of the int8 engine on the first `subset` test images,
/// evaluated in true batches (bundle.eval_batch images per forward) with
/// cached inputs and clean-logit reuse. Bit-identical for any engine
/// kind, thread count or batch size.
double accuracy_on_subset(ModelBundle& bundle, std::int64_t subset);

/// Result of replaying one attack round under one RADAR configuration.
struct RecoveryOutcome {
  std::int64_t flips_total = 0;
  std::int64_t flips_detected = 0;
  double accuracy_attacked = 0.0;   ///< after the attack, before recovery
  double accuracy_recovered = 0.0;  ///< after zero-out recovery
};

/// Replay `round` (optionally only its first `n_bf` flips — greedy PBFA
/// is prefix-consistent) against a fresh model protected by a RADAR
/// scheme with `params` and `signature_bits`; measures detection and
/// recovery. Restores the clean model afterwards.
RecoveryOutcome replay_and_recover(ModelBundle& bundle,
                                   const attack::AttackResult& round,
                                   const core::SchemeParams& params,
                                   int signature_bits, int n_bf,
                                   std::int64_t eval_subset,
                                   bool measure_attacked = true);

/// Mean over rounds of replay_and_recover outcomes.
struct RecoverySummary {
  double mean_detected = 0.0;       ///< of n_bf flips
  double mean_acc_attacked = 0.0;
  double mean_acc_recovered = 0.0;
  int rounds = 0;
};

RecoverySummary summarize_recovery(
    ModelBundle& bundle, const std::vector<attack::AttackResult>& rounds,
    const core::SchemeParams& params, int signature_bits, int n_bf,
    std::int64_t eval_subset);

}  // namespace radar::exp
