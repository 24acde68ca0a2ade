// ScanScheduler, the one whole-model scan engine: the budget semantics
// and the report-identity contract the package, campaign and serve
// layers build on.
//
//   - zero budget starves (nothing scanned, `starved` reported) — the
//     signal the serve coverage-age alarm keys off
//   - an unlimited sweep equals the serial `scheme.scan(qm)` bit for bit
//     for every scheme, with and without a pool, at any chunk size and
//     under every supported SIMD level
//   - a byte budget small enough to split layers resumes mid-layer and
//     still reproduces the serial report exactly
//   - dirty groups preempt the sweep (flagged before the cursor would
//     reach them) without ever polluting the sweep report
//   - warm serial sweeps and dirty scans allocate nothing
//   - a parallel drain over an epoch-guarded arena is rejected
//   - the campaign's kScheduled mode emits default (non-timing) reports
//     byte-identical to kFull, across worker thread counts
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "common/bits.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/protected_model.h"
#include "core/scan_scheduler.h"
#include "core/scheme_registry.h"
#include "quant/qmodel.h"

// ---- counting global allocator (zero-allocation assertions) ----
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}

// new and the unsized delete, which every other form forwards to, stay
// out of line: an inlined malloc/free pair at a new-expression's call site
// would trip -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  ++g_alloc_count;
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

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

class ScanSchedulerTest : public ::testing::Test {
 protected:
  ScanSchedulerTest() : rng_(91), model_(tiny_spec(), rng_), qm_(model_) {
    scheme_ = SchemeRegistry::instance().create(
        "radar2", SchemeParams{.group_size = 32});
    scheme_->attach(qm_);
  }

  /// Corrupt one weight (persistently) in the given layer.
  void flip(std::size_t layer, std::int64_t idx) {
    qm_.flip_bit(layer, idx, kMsb);
  }

  Rng rng_;
  nn::ResNet model_;
  quant::QuantizedModel qm_;
  std::unique_ptr<IntegrityScheme> scheme_;
};

TEST_F(ScanSchedulerTest, ZeroBudgetStarvesWithoutScanning) {
  ScanScheduler sched;
  ScanScheduler::Config cfg;
  cfg.budget_bytes = 0;
  sched.plan(*scheme_, cfg);
  flip(0, 1);  // corruption a starved scanner must NOT see
  for (int i = 0; i < 5; ++i) {
    const auto slice = sched.run_slice(qm_);
    EXPECT_TRUE(slice.starved);
    EXPECT_FALSE(slice.flagged);
    EXPECT_EQ(slice.chunks + slice.dirty_groups, 0);
    EXPECT_EQ(slice.bytes, 0);
  }
  EXPECT_EQ(sched.cursor(), 0u);
  EXPECT_EQ(sched.bytes_scanned(), 0);
  EXPECT_EQ(sched.sweeps(), 0u);
  // Retuning the budget un-starves the same plan.
  sched.set_budget(/*budget_us=*/-1, /*budget_bytes=*/-1);
  const auto slice = sched.run_slice(qm_);
  EXPECT_FALSE(slice.starved);
  EXPECT_TRUE(slice.wrapped);
  EXPECT_TRUE(slice.flagged);
}

TEST_F(ScanSchedulerTest, UnlimitedSweepMatchesSerialScanByteForByte) {
  // Every scheme x {no pool, 2, 4 workers, one chunk per slice} x chunk
  // sizes from far below a layer (every layer splits) to the default,
  // under every supported SIMD level, against the scalar serial scan.
  // Unlimited drains merge runs of chunks into one range-kernel call;
  // the one-chunk slices run the range kernel on every single chunk.
  Rng rng(0xBEEF);
  ThreadPool pool2(2), pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool2, &pool4};
  SchemeParams params;
  params.group_size = 16;
  for (const auto& id : SchemeRegistry::instance().ids()) {
    auto scheme = SchemeRegistry::instance().create(id, params);
    scheme->attach(qm_);
    const quant::ArenaSnapshot clean = qm_.snapshot();
    ScanScheduler sched;
    sched.plan(*scheme, {});
    EXPECT_FALSE(sched.sweep(qm_, &pool4).attack_detected()) << id;
    for (int f = 0; f < 12; ++f) {
      const auto li = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
      flip(li, rng.uniform_int(0, qm_.layer(li).size() - 1));
    }
    DetectionReport want;
    {
      cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
      want = scheme->scan(qm_);
    }
    ASSERT_TRUE(want.attack_detected()) << id;
    for (const std::int64_t chunk_bytes :
         {std::int64_t{64}, std::int64_t{1000},
          ScanScheduler::Config{}.chunk_bytes}) {
      ScanScheduler::Config cfg;
      cfg.chunk_bytes = chunk_bytes;
      sched.plan(*scheme, cfg);
      if (chunk_bytes == 64) {
        EXPECT_GT(sched.num_chunks(), qm_.num_layers())
            << id << ": small chunks should split layers";
      }
      for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
        const auto lvl = static_cast<cpu::SimdLevel>(l);
        if (!cpu::level_supported(lvl)) continue;
        cpu::ScopedSimdLevel guard(lvl);
        EXPECT_EQ(scheme->scan(qm_).flagged, want.flagged)
            << id << " serial scan, level " << cpu::level_name(lvl);
        for (ThreadPool* pool : pools) {
          const ScanScheduler::Slice slice = sched.run_slice(qm_, pool);
          EXPECT_TRUE(slice.wrapped);
          EXPECT_EQ(static_cast<std::size_t>(slice.chunks),
                    sched.num_chunks());
          EXPECT_EQ(sched.last_sweep_report().flagged, want.flagged)
              << id << " chunk_bytes=" << chunk_bytes << " workers="
              << (pool == nullptr ? 1 : pool->size()) << " level "
              << cpu::level_name(lvl);
        }
        sched.set_budget(/*budget_us=*/-1, /*budget_bytes=*/1);
        EXPECT_EQ(sched.sweep(qm_).flagged, want.flagged)
            << id << " chunk_bytes=" << chunk_bytes
            << " one chunk per slice, level " << cpu::level_name(lvl);
        sched.set_budget(-1, -1);
      }
    }
    qm_.restore(clean);
  }
}

TEST_F(ScanSchedulerTest, RangeScanEqualsTrimmedFullScanPerLayer) {
  // scan_layer_range_into over arbitrary split points reproduces the
  // slice of scan_layer_into for every scheme.
  Rng rng(0x51AB);
  SchemeParams params;
  params.group_size = 8;
  for (const auto& id : SchemeRegistry::instance().ids()) {
    auto scheme = SchemeRegistry::instance().create(id, params);
    scheme->attach(qm_);
    for (int f = 0; f < 10; ++f) {
      const auto li = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
      flip(li, rng.uniform_int(0, qm_.layer(li).size() - 1));
    }
    ScanScratch scratch;
    std::vector<std::int64_t> part, whole;
    for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
      scheme->scan_layer_into(qm_, li, whole, scratch);
      const std::int64_t ng = scheme->layout(li).num_groups();
      // Random split into 3 ranges (possibly empty).
      const std::int64_t a = rng.uniform_int(0, ng);
      const std::int64_t b = rng.uniform_int(0, ng);
      const std::int64_t lo = std::min(a, b), hi = std::max(a, b);
      std::vector<std::int64_t> merged;
      for (const auto& [s, e] : {std::pair{std::int64_t{0}, lo},
                                std::pair{lo, hi}, std::pair{hi, ng}}) {
        scheme->scan_layer_range_into(qm_, li, s, e, part, scratch);
        for (const std::int64_t g : part) {
          EXPECT_GE(g, s);
          EXPECT_LT(g, e);
        }
        merged.insert(merged.end(), part.begin(), part.end());
      }
      EXPECT_EQ(merged, whole) << id << " layer " << li;
    }
    // Each scheme attaches to the weights as left by the previous one.
  }
}

TEST_F(ScanSchedulerTest, SerialScanLoopIsAllocationFreeAtSteadyState) {
  // radar2 plus a block code on both layouts: the interleaved code's
  // per-group fold state and staged rows must come from ScanScratch too.
  auto crc_interleaved = SchemeRegistry::instance().create(
      "crc13", SchemeParams{.group_size = 32});
  auto crc_contiguous = SchemeRegistry::instance().create(
      "crc13", SchemeParams{.group_size = 32, .interleave = false});
  for (IntegrityScheme* scheme :
       {scheme_.get(), crc_interleaved.get(), crc_contiguous.get()}) {
    SCOPED_TRACE(scheme->id() + (scheme->params().interleave
                                     ? " interleaved"
                                     : " contiguous"));
    if (!scheme->attached()) scheme->attach(qm_);
    ScanScheduler sched;
    sched.plan(*scheme, {});
    qm_.set_dirty_tracking(true);
    DetectionReport inc;
    flip(1, 3);
    // Warm-up: scratch and report vectors grow to their high-water mark
    // (two sweeps, so both the building and the finished report have).
    sched.sweep(qm_);
    sched.sweep(qm_);
    sched.scan_dirty_into(qm_, inc);
    const std::size_t before = g_alloc_count.load();
    for (int round = 0; round < 5; ++round) {
      sched.sweep(qm_);
      sched.scan_dirty_into(qm_, inc);
    }
    EXPECT_EQ(g_alloc_count.load() - before, 0u)
        << "steady-state scan loop allocated";
    EXPECT_EQ(sched.last_sweep_report().flagged, inc.flagged);
    EXPECT_TRUE(inc.attack_detected());
    qm_.undo_dirty();
    qm_.set_dirty_tracking(false);
  }
}

TEST_F(ScanSchedulerTest, UnattachedSchemeRejected) {
  auto scheme = SchemeRegistry::instance().create("radar2", SchemeParams{});
  ScanScheduler sched;
  EXPECT_THROW(sched.plan(*scheme, {}), InvalidArgument);
}

TEST_F(ScanSchedulerTest, ParallelDrainOverGuardedArenaRejected) {
  flip(2, 9);
  qm_.enable_epoch_guard();
  ThreadPool pool(2);
  ScanScheduler sched;
  sched.plan(*scheme_, {});
  EXPECT_THROW(sched.run_slice(qm_, &pool), InvalidArgument);
  EXPECT_THROW(sched.sweep(qm_, &pool), InvalidArgument);
  // The serial, epoch-validated drain still serves the guarded arena.
  EXPECT_EQ(sched.sweep(qm_).flagged, scheme_->scan(qm_).flagged);
  EXPECT_EQ(sched.epoch_fallbacks(), 0u);
}

TEST_F(ScanSchedulerTest, ProtectedModelSweepsOverItsPool) {
  ProtectedModel pm(qm_, *scheme_);
  pm.set_scan_threads(4);
  flip(1, 3);
  pm.check_and_recover();
  EXPECT_EQ(pm.detections(), 1);
  EXPECT_EQ(qm_.get_code(1, 3), 0);
  // Recovered state was re-signed: the next pooled sweep is clean.
  pm.check_and_recover();
  EXPECT_EQ(pm.detections(), 1);
}

TEST_F(ScanSchedulerTest, MidLayerResumeReproducesSerialReport) {
  flip(1, 7);
  flip(3, 41);
  // chunk_bytes far below any layer size forces multi-chunk layers, and
  // budget_bytes == 1 forces one chunk per slice: every boundary is a
  // mid-layer resume through scan_layer_range_into.
  ScanScheduler sched;
  ScanScheduler::Config cfg;
  cfg.chunk_bytes = 128;
  cfg.budget_bytes = 1;
  sched.plan(*scheme_, cfg);
  ASSERT_GT(sched.num_chunks(), qm_.num_layers())
      << "plan must split layers for this test to mean anything";
  std::size_t slices = 0;
  while (!sched.run_slice(qm_).wrapped) ++slices;
  EXPECT_EQ(slices + 1, sched.num_chunks());

  EXPECT_EQ(sched.last_sweep_report().flagged, scheme_->scan(qm_).flagged);
}

TEST_F(ScanSchedulerTest, DirtyGroupsPreemptTheSweep) {
  const std::size_t last = qm_.num_layers() - 1;
  const GroupLayout& layout = scheme_->layout(last);
  flip(last, 0);
  const std::int64_t bad_group = layout.group_of(0);

  ScanScheduler sched;
  ScanScheduler::Config cfg;
  cfg.budget_bytes = 1;  // one unit per slice
  sched.plan(*scheme_, cfg);
  sched.push_dirty(last, bad_group);
  sched.push_dirty(last, bad_group);  // deduplicated
  EXPECT_EQ(sched.dirty_pending(), 1u);

  // The very first slice must flag the dirty group — the sweep cursor is
  // still at chunk 0, nowhere near the last layer.
  const auto slice = sched.run_slice(qm_);
  EXPECT_EQ(slice.dirty_groups, 1);
  EXPECT_EQ(slice.chunks, 0);
  EXPECT_TRUE(slice.flagged);
  ASSERT_EQ(sched.slice_flags().size(), 1u);
  EXPECT_EQ(sched.slice_flags()[0],
            (std::pair<std::size_t, std::int64_t>{last, bad_group}));
  EXPECT_EQ(sched.cursor(), 0u) << "dirty work must not advance the sweep";

  // Drain the sweep: the dirty rescan must not have polluted the
  // accumulated sweep report (it still equals the serial scan).
  while (!sched.run_slice(qm_).wrapped) {
  }
  EXPECT_EQ(sched.last_sweep_report().flagged, scheme_->scan(qm_).flagged);
}

TEST_F(ScanSchedulerTest, SliceNeverScansPastAWrap) {
  ScanScheduler sched;
  sched.plan(*scheme_, {});  // unlimited: one slice = exactly one sweep
  for (int sweep = 0; sweep < 3; ++sweep) {
    const auto slice = sched.run_slice(qm_);
    EXPECT_TRUE(slice.wrapped);
    EXPECT_EQ(static_cast<std::size_t>(slice.chunks), sched.num_chunks());
    EXPECT_EQ(sched.cursor(), 0u);
  }
  EXPECT_EQ(sched.sweeps(), 3u);
}

// ---------------------------------------------------------------------
// Campaign integration: kScheduled default reports are byte-identical to
// kFull, for any budget and any worker thread count.
// ---------------------------------------------------------------------
campaign::CampaignSpec sched_spec() {
  campaign::CampaignSpec spec;
  spec.name = "sched_ident";
  spec.model = "tiny";
  spec.train = false;
  spec.trials = 2;
  spec.seed = 0xC0FFEE;
  spec.eval_subset = 0;  // detection-only: fast
  campaign::AttackerSpec atk;
  atk.kind = "random_msb";
  atk.flips = 5;
  spec.attackers = {atk};
  campaign::SchemeSpec radar2;
  radar2.id = "radar2";
  radar2.params.group_size = 32;
  spec.schemes = {radar2};
  return spec;
}

TEST(ScheduledCampaign, DefaultReportIdenticalToFullAcrossThreads) {
  const campaign::CampaignSpec spec = sched_spec();
  const std::string full =
      campaign::CampaignRunner(1, 1, campaign::ScanMode::kFull)
          .run(spec)
          .to_json(false);
  for (const std::int64_t budget : {std::int64_t{512}, std::int64_t{-1}}) {
    campaign::EvalOptions eval;
    eval.scan_budget_bytes = budget;
    eval.scan_chunk_bytes = 512;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const campaign::CampaignReport report =
          campaign::CampaignRunner(threads, 1,
                                   campaign::ScanMode::kScheduled, eval)
              .run(spec);
      EXPECT_EQ(report.to_json(false), full)
          << "budget=" << budget << " threads=" << threads;
      EXPECT_TRUE(report.scheduled.enabled);
      EXPECT_EQ(report.scheduled.detected_trials, report.scheduled.trials);
    }
  }
}

TEST(ScheduledCampaign, ZeroBudgetIsRejected) {
  campaign::EvalOptions eval;
  eval.scan_budget_bytes = 0;
  EXPECT_THROW(
      campaign::CampaignRunner(1, 1, campaign::ScanMode::kScheduled, eval)
          .run(sched_spec()),
      Error);
}

}  // namespace
}  // namespace radar::core
