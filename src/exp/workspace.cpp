#include "exp/workspace.h"

#include "attack/knowledgeable.h"

#include <algorithm>

#include "common/env.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "data/model_recipe.h"
#include "nn/model_io.h"

namespace radar::exp {

namespace {

/// Default images per engine forward when the caller left eval_batch on
/// auto; purely a throughput knob (results are batch-size invariant).
constexpr std::int64_t kDefaultEvalBatch = 64;
/// Images used for the one-time static activation calibration.
constexpr std::int64_t kCalibImages = 128;

/// Training knobs of each model id (its topology and dataset come from
/// data::model_recipe). Kept deliberately small so the whole suite runs on
/// a laptop; RADAR_FAST shrinks them further for CI smoke runs.
data::TrainConfig train_config_for(const std::string& id) {
  data::TrainConfig t;
  if (id == "resnet20") {
    t.epochs = fast_mode() ? 2 : 4;
    t.batch_size = 64;
    t.batches_per_epoch = 32;
    t.lr = 0.002f;
    t.use_adam = true;  // paper: ResNet-20 trained with Adam
    t.seed = 20;
  } else if (id == "resnet18") {
    t.epochs = fast_mode() ? 2 : 4;
    t.batch_size = 64;
    t.batches_per_epoch = 32;
    t.lr = 0.02f;
    t.use_adam = false;  // paper: ResNet-18 fine-tuned with SGD
    t.seed = 18;
  } else if (id == "tiny") {
    t.epochs = 4;
    t.batch_size = 32;
    t.batches_per_epoch = 16;
    t.lr = 0.005f;
    t.verbose = false;
    t.seed = 4;
  } else {
    throw InvalidArgument("unknown model id: " + id);
  }
  return t;
}

}  // namespace

std::vector<std::int64_t> ModelBundle::layer_sizes() const {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < qmodel->num_layers(); ++i)
    out.push_back(qmodel->layer(i).size());
  return out;
}

ModelBundle load_or_train(const std::string& id) {
  return make_bundle(id, /*train=*/true, /*eval_clean=*/true);
}

ModelBundle make_bundle(const std::string& id, bool train, bool eval_clean) {
  const data::ModelRecipe recipe = data::model_recipe(id);
  const data::TrainConfig train_cfg = train_config_for(id);
  ModelBundle b;
  b.id = id;
  b.spec = recipe.spec;
  Rng init_rng(train_cfg.seed);
  b.model = std::make_unique<nn::ResNet>(recipe.spec, init_rng);
  b.dataset = std::make_shared<const data::SyntheticDataset>(
      recipe.data_spec, recipe.n_train, recipe.n_test);

  if (train) {
    const std::string ckpt = model_cache_dir() + "/" + id + ".ckpt";
    if (file_exists(ckpt)) {
      nn::load_checkpoint(ckpt, b.model->params(), b.model->buffers());
      RADAR_LOG(kInfo) << id << ": loaded cached checkpoint " << ckpt;
    } else {
      RADAR_LOG(kInfo) << id << ": training (" << b.model->num_params()
                       << " params)...";
      data::train(*b.model, *b.dataset, train_cfg);
      nn::save_checkpoint(ckpt, b.model->params(), b.model->buffers());
    }
  }

  b.qmodel = std::make_unique<quant::QuantizedModel>(*b.model);
  b.group_scale = group_scale_for(id);
  if (eval_clean) {
    // Full-test-split accuracy of the int8 deployment artifact, batched
    // through the inference engine (the same path campaign evals use).
    b.clean_accuracy = accuracy_on_subset(b, b.dataset->test_size());
    RADAR_LOG(kInfo) << id << ": quantized clean accuracy "
                     << b.clean_accuracy;
  } else {
    b.clean_accuracy = -1.0;
  }
  return b;
}

void ensure_engine(ModelBundle& b) {
  if (b.engine == nullptr) {
    b.engine = std::make_unique<qnn::InferenceEngine>(
        *b.qmodel, b.engine_kind, &ThreadPool::global());
  }
  b.engine->set_kind(b.engine_kind);
  if (!b.engine->calibrated()) {
    const std::int64_t n =
        std::min<std::int64_t>(kCalibImages, b.dataset->test_size());
    RADAR_REQUIRE(n > 0, "dataset has no test images to calibrate on");
    b.engine->calibrate(b.dataset->test_batch(0, n).images);
  }
}

std::int64_t group_scale_for(const std::string& id) {
  // Paper-G -> reduced-G translation (see ModelBundle::group_scale): the
  // ResNet-18 stand-in runs at 1/16 width ~= 1/16.6 of the paper's 11.7M
  // weights; ResNet-20 is built at full size.
  return (id == "resnet18") ? 16 : 1;
}

std::int64_t paper_group(const std::string& id, std::int64_t paper_g) {
  return std::max<std::int64_t>(4, paper_g / group_scale_for(id));
}

double accuracy_on_subset(ModelBundle& bundle, std::int64_t subset) {
  subset = std::min<std::int64_t>(subset, bundle.dataset->test_size());
  if (subset <= 0) return 0.0;
  ensure_engine(bundle);

  // Clean-baseline fast path: when dirty tracking proves the int8 state
  // is exactly the clean baseline (e.g. after a complete reload-clean
  // recovery), the cached clean accuracy is bit-identical to re-running
  // the forward passes — so skip them.
  const bool at_baseline =
      bundle.qmodel->dirty_tracking() &&
      bundle.qmodel->dirty_matches_baseline();
  if (at_baseline && bundle.clean_subset == subset)
    return bundle.clean_subset_acc;

  const std::int64_t batch =
      bundle.eval_batch > 0 ? bundle.eval_batch : kDefaultEvalBatch;
  if (bundle.cached_subset != subset || bundle.cached_batch != batch) {
    bundle.eval_batches.clear();
    for (std::int64_t start = 0; start < subset; start += batch) {
      bundle.eval_batches.push_back(
          bundle.dataset->test_batch(start, std::min(batch, subset - start)));
    }
    bundle.cached_subset = subset;
    bundle.cached_batch = batch;
  }

  std::int64_t correct = 0;
  for (const data::Batch& tb : bundle.eval_batches) {
    bundle.engine->forward_into(tb.images, bundle.eval_scratch,
                                bundle.eval_logits);
    // Logits are a grow-only buffer: the row count comes from the batch.
    correct += data::count_correct(bundle.eval_logits, tb.labels,
                                   tb.images.dim(0));
  }
  bundle.eval_images += subset;
  const double acc =
      static_cast<double>(correct) / static_cast<double>(subset);
  if (at_baseline) {
    bundle.clean_subset = subset;
    bundle.clean_subset_acc = acc;
  }
  return acc;
}

std::vector<attack::AttackResult> load_or_run_pbfa(ModelBundle& bundle,
                                                   int n_bf, int rounds,
                                                   const std::string& tag,
                                                   int eval_subset) {
  const std::string path = model_cache_dir() + "/" + bundle.id + "_pbfa" +
                           (tag.empty() ? "" : "_" + tag) + "_nbf" +
                           std::to_string(n_bf) + "_r" +
                           std::to_string(rounds) + ".bin";
  if (file_exists(path)) {
    RADAR_LOG(kInfo) << bundle.id << ": loading cached profiles " << path;
    return attack::load_profiles(path);
  }

  RADAR_LOG(kInfo) << bundle.id << ": running " << rounds
                   << " PBFA rounds of " << n_bf << " flips...";
  ensure_engine(bundle);  // calibrate on the clean weights
  const quant::ArenaSnapshot clean = bundle.qmodel->snapshot();
  std::vector<attack::AttackResult> out;
  attack::Pbfa pbfa;
  for (int r = 0; r < rounds; ++r) {
    data::Batch batch = bundle.dataset->attack_batch(
        16, 0xA77AC4ull * (static_cast<std::uint64_t>(r) + 1));
    attack::AttackResult res = pbfa.run(*bundle.qmodel, batch, n_bf);
    res.accuracy_after = accuracy_on_subset(bundle, eval_subset);
    RADAR_LOG(kInfo) << bundle.id << ": round " << (r + 1) << "/" << rounds
                     << " loss " << res.loss_before << " -> "
                     << res.loss_after << ", acc " << res.accuracy_after;
    out.push_back(std::move(res));
    bundle.qmodel->restore(clean);
  }
  attack::save_profiles(path, out);
  return out;
}

std::vector<attack::AttackResult> load_or_run_knowledgeable(
    ModelBundle& bundle, int n_primary, int rounds,
    std::int64_t assumed_group_size, int eval_subset) {
  const std::string path =
      model_cache_dir() + "/" + bundle.id + "_know_g" +
      std::to_string(assumed_group_size) + "_np" +
      std::to_string(n_primary) + "_r" + std::to_string(rounds) + ".bin";
  if (file_exists(path)) {
    RADAR_LOG(kInfo) << bundle.id << ": loading cached profiles " << path;
    return attack::load_profiles(path);
  }
  RADAR_LOG(kInfo) << bundle.id << ": running " << rounds
                   << " knowledgeable rounds (assumed G="
                   << assumed_group_size << ")...";
  ensure_engine(bundle);  // calibrate on the clean weights
  const quant::ArenaSnapshot clean = bundle.qmodel->snapshot();
  attack::KnowledgeableConfig kc;
  kc.assumed_group_size = assumed_group_size;
  attack::KnowledgeableAttacker attacker(kc);
  std::vector<attack::AttackResult> out;
  for (int r = 0; r < rounds; ++r) {
    Rng rng(0xF00D + static_cast<std::uint64_t>(r));
    data::Batch batch = bundle.dataset->attack_batch(
        16, 0x5EED00ull * (static_cast<std::uint64_t>(r) + 1));
    attack::AttackResult res =
        attacker.run(*bundle.qmodel, batch, n_primary, rng);
    res.accuracy_after = accuracy_on_subset(bundle, eval_subset);
    RADAR_LOG(kInfo) << bundle.id << ": round " << (r + 1) << "/" << rounds
                     << " flips " << res.flips.size() << ", acc "
                     << res.accuracy_after;
    out.push_back(std::move(res));
    bundle.qmodel->restore(clean);
  }
  attack::save_profiles(path, out);
  return out;
}

std::vector<attack::AttackResult> load_or_run_restricted_pbfa(
    ModelBundle& bundle, int n_bf, int rounds, std::vector<int> allowed_bits,
    const std::string& tag, int eval_subset) {
  const std::string path = model_cache_dir() + "/" + bundle.id + "_" + tag +
                           "_nbf" + std::to_string(n_bf) + "_r" +
                           std::to_string(rounds) + ".bin";
  if (file_exists(path)) {
    RADAR_LOG(kInfo) << bundle.id << ": loading cached profiles " << path;
    return attack::load_profiles(path);
  }
  RADAR_LOG(kInfo) << bundle.id << ": running " << rounds
                   << " bit-restricted PBFA rounds of " << n_bf
                   << " flips...";
  attack::PbfaConfig pc;
  pc.allowed_bits = std::move(allowed_bits);
  attack::Pbfa pbfa(pc);
  ensure_engine(bundle);  // calibrate on the clean weights
  const quant::ArenaSnapshot clean = bundle.qmodel->snapshot();
  std::vector<attack::AttackResult> out;
  for (int r = 0; r < rounds; ++r) {
    data::Batch batch = bundle.dataset->attack_batch(
        16, 0xB17B17ull * (static_cast<std::uint64_t>(r) + 1));
    attack::AttackResult res = pbfa.run(*bundle.qmodel, batch, n_bf);
    res.accuracy_after = accuracy_on_subset(bundle, eval_subset);
    RADAR_LOG(kInfo) << bundle.id << ": round " << (r + 1) << "/" << rounds
                     << " loss " << res.loss_before << " -> "
                     << res.loss_after << ", acc " << res.accuracy_after;
    out.push_back(std::move(res));
    bundle.qmodel->restore(clean);
  }
  attack::save_profiles(path, out);
  return out;
}

RecoveryOutcome replay_and_recover(ModelBundle& bundle,
                                   const attack::AttackResult& round,
                                   const core::SchemeParams& params,
                                   int signature_bits, int n_bf,
                                   std::int64_t eval_subset,
                                   bool measure_attacked) {
  RADAR_REQUIRE(n_bf >= 0, "negative flip count");
  if (eval_subset > 0) ensure_engine(bundle);  // calibrate on clean weights
  const quant::ArenaSnapshot clean = bundle.qmodel->snapshot();

  core::RadarScheme scheme(params, signature_bits);
  scheme.attach(*bundle.qmodel);

  // Replay the first n_bf recorded flips (greedy PBFA prefix).
  const std::size_t take =
      std::min<std::size_t>(round.flips.size(), static_cast<std::size_t>(n_bf));
  std::vector<std::pair<std::size_t, std::int64_t>> sites;
  for (std::size_t i = 0; i < take; ++i) {
    const auto& f = round.flips[i];
    bundle.qmodel->flip_bit(f.layer, f.index, f.bit);
    sites.emplace_back(f.layer, f.index);
  }

  RecoveryOutcome out;
  out.flips_total = static_cast<std::int64_t>(take);
  // eval_subset == 0 requests detection-only replay (skips the accuracy
  // evaluations, which dominate the cost); measure_attacked=false skips
  // just the post-attack evaluation, which is identical across RADAR
  // configurations replaying the same round.
  if (eval_subset > 0 && measure_attacked)
    out.accuracy_attacked = accuracy_on_subset(bundle, eval_subset);

  const core::DetectionReport report = scheme.scan(*bundle.qmodel);
  out.flips_detected = core::count_detected_flips(scheme, report, sites);
  scheme.recover(*bundle.qmodel, report, core::RecoveryPolicy::kZeroOut);
  if (eval_subset > 0)
    out.accuracy_recovered = accuracy_on_subset(bundle, eval_subset);

  bundle.qmodel->restore(clean);
  return out;
}

RecoverySummary summarize_recovery(
    ModelBundle& bundle, const std::vector<attack::AttackResult>& rounds,
    const core::SchemeParams& params, int signature_bits, int n_bf,
    std::int64_t eval_subset) {
  RecoverySummary s;
  for (const auto& round : rounds) {
    const RecoveryOutcome o =
        replay_and_recover(bundle, round, params, signature_bits, n_bf,
                           eval_subset);
    s.mean_detected += static_cast<double>(o.flips_detected);
    s.mean_acc_attacked += o.accuracy_attacked;
    s.mean_acc_recovered += o.accuracy_recovered;
    ++s.rounds;
  }
  if (s.rounds > 0) {
    s.mean_detected /= s.rounds;
    s.mean_acc_attacked /= s.rounds;
    s.mean_acc_recovered /= s.rounds;
  }
  return s;
}

}  // namespace radar::exp
