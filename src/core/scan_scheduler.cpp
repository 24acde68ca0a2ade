#include "core/scan_scheduler.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "common/thread_pool.h"
#include "quant/epoch_guard.h"

namespace radar::core {

void ScanScheduler::plan(const IntegrityScheme& scheme, Config cfg) {
  RADAR_REQUIRE(scheme.attached(), "scheduler plan before attach");
  RADAR_REQUIRE(cfg.chunk_bytes > 0, "scan chunk size must be positive");
  scheme_ = &scheme;
  cfg_ = cfg;
  plan_.clear();
  cursor_ = 0;
  dirty_queue_.clear();
  dirty_set_.clear();
  sweep_started_ = false;
  sweep_end_ = Clock::now();

  // Chunks cover contiguous ascending group ranges sized to
  // ~chunk_bytes of weights.
  for (std::size_t li = 0; li < scheme.num_layers(); ++li) {
    const GroupLayout& layout = scheme.layout(li);
    const std::int64_t nw = layout.num_weights();
    const std::int64_t ng = layout.num_groups();
    const std::int64_t chunks = std::max<std::int64_t>(
        1, std::min(ng, (nw + cfg.chunk_bytes - 1) / cfg.chunk_bytes));
    const std::int64_t per = (ng + chunks - 1) / chunks;
    for (std::int64_t b = 0; b < ng; b += per) {
      const std::int64_t e = std::min(b + per, ng);
      plan_.push_back({li, b, e, std::max<std::int64_t>(
                                     1, (nw * (e - b) + ng - 1) / ng)});
    }
  }

  building_.flagged.assign(scheme.num_layers(), std::vector<std::int64_t>{});
  sweep_report_.flagged.assign(scheme.num_layers(),
                               std::vector<std::int64_t>{});
}

void ScanScheduler::push_dirty(std::size_t layer, std::int64_t group) {
  if (dirty_set_.insert({layer, group}).second)
    dirty_queue_.emplace_back(layer, group);
}

void ScanScheduler::restart_sweep() {
  cursor_ = 0;
  sweep_started_ = false;
  dirty_queue_.clear();
  dirty_set_.clear();
  for (auto& v : building_.flagged) v.clear();
}

std::int64_t ScanScheduler::coverage_age_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - sweep_end_)
      .count();
}

template <class Scan>
void ScanScheduler::scan_guarded(const quant::QuantizedModel& qm,
                                 std::size_t layer, const Scan& scan) {
  quant::EpochGuard* guard = qm.epoch_guard();
  if (guard == nullptr) {
    scan();
    return;
  }
  // The validated range is the layer's whole byte range: interleaved
  // layouts scatter a group's members across the entire layer, so the
  // layer range is the true read set.
  const auto [b0, b1] = qm.layer_byte_range(layer);
  bool done = false;
  for (int attempt = 0; attempt < cfg_.max_retries && !done; ++attempt) {
    if (!guard->read_begin(b0, b1, epoch_snap_)) {
      ++epoch_retries_;
      std::this_thread::yield();
      continue;
    }
    scan();
    if (guard->read_validate(b0, b1, epoch_snap_)) {
      done = true;
    } else {
      ++epoch_retries_;  // writer overlapped: verdict discarded
    }
  }
  if (!done) {
    // Quiescent fallback: lock writers out for one bounded scan so a
    // hot writer can delay detection, never defeat it.
    ++epoch_fallbacks_;
    auto lock = guard->lock_writers();
    scan();
  }
}

bool ScanScheduler::finish_chunk(const Chunk& ch,
                                 const std::vector<std::int64_t>& flags,
                                 Slice& out) {
  auto& accum = building_.flagged[ch.layer];
  accum.insert(accum.end(), flags.begin(), flags.end());
  for (std::int64_t g : flags) slice_flags_.emplace_back(ch.layer, g);
  out.bytes += ch.bytes;
  ++out.chunks;
  ++chunks_scanned_;
  if (++cursor_ < plan_.size()) return false;
  cursor_ = 0;
  ++sweeps_;
  out.wrapped = true;
  sweep_end_ = Clock::now();
  last_sweep_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       sweep_end_ - sweep_start_)
                       .count();
  sweep_started_ = false;
  std::swap(sweep_report_.flagged, building_.flagged);
  for (auto& v : building_.flagged) v.clear();
  return true;
}

void ScanScheduler::scan_run(const quant::QuantizedModel& qm,
                             std::size_t first, std::size_t last,
                             ScanScratch& scratch) {
  // One kernel call per layer piece of the run: consecutive chunks of a
  // layer cover adjacent group ranges, so a single range scan yields
  // their flags in plan order. They land in the piece's first slot.
  for (std::size_t i = first; i < last;) {
    std::size_t j = i + 1;
    while (j < last && plan_[j].layer == plan_[i].layer)
      chunk_slots_[j++].flags.clear();
    scheme_->scan_layer_range_into(qm, plan_[i].layer, plan_[i].begin,
                                   plan_[j - 1].end, chunk_slots_[i].flags,
                                   scratch);
    i = j;
  }
}

void ScanScheduler::drain(const quant::QuantizedModel& qm,
                          ThreadPool* pool) {
  const std::size_t n = plan_.size();
  if (chunk_slots_.size() < n) chunk_slots_.resize(n);
  // The pool clamped to the hardware core count: the scan kernels never
  // block, so oversubscribing them only adds scheduling churn.
  static const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers =
      pool == nullptr ? 1 : std::min(pool->size(), hw);
  if (workers == 1) {
    scan_run(qm, cursor_, n, scratch_[0]);
    return;
  }
  if (scratch_.size() < workers) scratch_.resize(workers);
  // Workers claim equal runs of chunks off an atomic index, a few runs per
  // worker: long enough to scan at streaming speed, enough of them to
  // rebalance around a slow worker. One submitted task per worker.
  constexpr std::size_t kRunsPerWorker = 4;
  const std::size_t per = (n - cursor_ + kRunsPerWorker * workers - 1) /
                          (kRunsPerWorker * workers);
  std::atomic<std::size_t> next{cursor_};
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  for (std::size_t w = 0; w < workers; ++w) {
    pool->submit([this, &qm, &next, &error, &failed, n, per, w] {
      try {
        std::size_t first;
        while ((first = next.fetch_add(per, std::memory_order_relaxed)) < n)
          scan_run(qm, first, std::min(first + per, n), scratch_[w]);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    });
  }
  pool->wait();
  if (error) std::rethrow_exception(error);
}

ScanScheduler::Slice ScanScheduler::run_slice(const quant::QuantizedModel& qm,
                                              ThreadPool* pool) {
  RADAR_REQUIRE(planned(), "scheduler run_slice before plan");
  RADAR_REQUIRE(pool == nullptr || qm.epoch_guard() == nullptr,
                "parallel scan drain over an epoch-guarded arena");
  Slice out;
  slice_flags_.clear();
  if (cfg_.budget_us == 0 || cfg_.budget_bytes == 0) {
    out.starved = true;  // scan is starved: coverage age keeps growing
    return out;
  }

  const auto t0 = Clock::now();
  const auto elapsed_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
  };
  const auto budget_left = [&] {
    if (cfg_.budget_bytes > 0 && out.bytes >= cfg_.budget_bytes)
      return false;
    if (cfg_.budget_us > 0 && elapsed_ns() >= cfg_.budget_us * 1000)
      return false;
    return true;
  };

  // Priority pass: dirty groups (recovery rewrites) before sweep work.
  // Flags are reported via slice_flags_ only — never merged into the
  // sweep report, which must stay bit-identical to a serial scan.
  while (!dirty_queue_.empty() && (out.dirty_groups == 0 || budget_left())) {
    const std::size_t layer = dirty_queue_.front().first;
    const std::int64_t group = dirty_queue_.front().second;
    dirty_queue_.pop_front();
    dirty_set_.erase({layer, group});
    scan_guarded(qm, layer, [&] {
      scheme_->scan_layer_groups(qm, layer, {&group, 1}, chunk_flags_,
                                 scratch_[0]);
    });
    for (std::int64_t g : chunk_flags_) slice_flags_.emplace_back(layer, g);
    const GroupLayout& layout = scheme_->layout(layer);
    out.bytes += std::max<std::int64_t>(
        1, (layout.num_weights() + layout.num_groups() - 1) /
               layout.num_groups());
    ++out.dirty_groups;
    ++dirty_scanned_;
  }

  const auto start_sweep = [&] {
    if (!sweep_started_ && cursor_ == 0) {
      sweep_start_ = Clock::now();
      sweep_started_ = true;
    }
  };
  if (cfg_.budget_us < 0 && cfg_.budget_bytes < 0 &&
      qm.epoch_guard() == nullptr) {
    // Nothing can interrupt this slice: drain the rest of the sweep in
    // long runs (over the pool, if any) and merge in plan order.
    start_sweep();
    drain(qm, pool);
    while (!finish_chunk(plan_[cursor_], chunk_slots_[cursor_].flags, out)) {
    }
  } else {
    // Round-robin sweep chunks until the budget runs out or a sweep
    // completes (a slice never scans past a wrap: callers harvest the
    // per-sweep report at that stable point).
    while (out.dirty_groups + out.chunks == 0 || budget_left()) {
      start_sweep();
      const Chunk& ch = plan_[cursor_];
      scan_guarded(qm, ch.layer, [&] {
        scheme_->scan_layer_range_into(qm, ch.layer, ch.begin, ch.end,
                                       chunk_flags_, scratch_[0]);
      });
      if (finish_chunk(ch, chunk_flags_, out)) break;
    }
  }

  bytes_scanned_ += out.bytes;
  out.flagged = !slice_flags_.empty();
  out.elapsed_ns = elapsed_ns();
  return out;
}

const DetectionReport& ScanScheduler::sweep(const quant::QuantizedModel& qm,
                                            ThreadPool* pool) {
  RADAR_REQUIRE(cfg_.budget_us != 0 && cfg_.budget_bytes != 0,
                "sweep with a zero budget never completes");
  restart_sweep();
  while (!run_slice(qm, pool).wrapped) {
  }
  return sweep_report_;
}

void ScanScheduler::scan_dirty_into(const quant::QuantizedModel& qm,
                                    DetectionReport& out, ThreadPool* pool) {
  RADAR_REQUIRE(planned(), "scheduler scan before plan");
  const std::size_t n = scheme_->num_layers();
  RADAR_REQUIRE(n == qm.num_layers(), "scheme not attached to this model");
  if (!qm.dirty_tracking()) {
    // No log — the full scan is the only safe answer.
    out.flagged = sweep(qm, pool).flagged;
    return;
  }
  dirty_groups_.resize(n);
  for (auto& g : dirty_groups_) g.clear();
  // Map each recorded write to its checksum group through the layer's
  // layout (group_of inverts interleave + skew in O(1)).
  for (const quant::DirtyWrite& w : qm.dirty_writes())
    dirty_groups_[w.layer].push_back(
        scheme_->layout(w.layer).group_of(w.index));
  std::int64_t total_dirty = 0;
  for (auto& g : dirty_groups_) {
    std::sort(g.begin(), g.end());
    g.erase(std::unique(g.begin(), g.end()), g.end());
    total_dirty += static_cast<std::int64_t>(g.size());
  }
  if (static_cast<double>(total_dirty) >
      kFullScanFraction * static_cast<double>(scheme_->total_groups())) {
    out.flagged = sweep(qm, pool).flagged;
    return;
  }
  out.flagged.resize(n);
  // Dirt is usually concentrated in a handful of layers; narrow scans are
  // cheap enough that fanning them over a pool would cost more than it
  // saves, so the incremental path always runs inline.
  for (std::size_t li = 0; li < n; ++li) {
    if (dirty_groups_[li].empty())
      out.flagged[li].clear();  // untouched since baseline => still clean
    else
      scheme_->scan_layer_groups(qm, li, dirty_groups_[li], out.flagged[li],
                                 scratch_[0]);
  }
}

}  // namespace radar::core
