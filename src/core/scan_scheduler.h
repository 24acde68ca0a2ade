// ScanScheduler: the one whole-model scan engine.
//
// Package verification, ProtectedModel, every campaign mode and the serve
// scanner all scan through this class. plan() partitions an attached
// scheme into chunks of ~chunk_bytes of weights: contiguous ascending
// group ranges of one layer, each scanned by the scheme's one dense
// primitive, scan_layer_range_into. run_slice() drains the plan — queued
// dirty groups first (fed by recovery writes, each rescanned by the
// narrow primitive, scan_layer_groups), then round-robin chunks —
// in *slices* bounded by a budget (X µs or Y bytes per slice), resumable
// mid-layer. A caller interleaves slices with inference batches; the
// budget is the dial between detection latency and throughput, and the
// completed-sweep cadence is the coverage guarantee.
//
// Report identity: a completed sweep accumulates chunk flags in plan
// order, so `last_sweep_report()` equals a serial `scheme.scan(qm)` —
// the same range primitive over whole layers — bit for bit for ANY
// budget, chunk size or worker count. Dirty-queue
// rescans are reported through `slice_flags()` only and never merged into
// the sweep report, so the identity survives priority preemption.
//
// Unlimited drains: an unlimited slice over an unguarded arena cannot be
// interrupted, so it scans the rest of the sweep in runs of consecutive
// chunks with one kernel call per layer piece (a narrow window of an
// interleaved layer costs far more per byte than a long one). Given a
// ThreadPool, min(pool size, hardware threads) workers claim equal runs,
// a few per worker, off a shared atomic index; each run writes its own
// chunk slots, and the slots merge in plan order. Conv layers span ~two
// orders of magnitude in size, so runs of equal-byte chunks load-balance
// where one item per layer would wait on the largest layer.
//
// Incremental scans: scan_dirty_into() maps the model's DirtyWrite log to
// affected groups through each layer's GroupLayout (group_of inverts
// interleave and skew) and rescans only those. Contract: the golden codes
// must describe the model state at the last dirty baseline (clear_dirty /
// restore / snapshot point) — then the report equals a full scan bit for
// bit, at O(dirty * G) cost. With tracking off, or more than
// kFullScanFraction of all groups dirty, it runs a full sweep instead.
//
// Concurrency: when the model's arena has an EpochGuard, every chunk is
// bracketed by the seqlock protocol — read_begin / scan / read_validate
// with bounded retries, then one quiescent locked scan so a hot writer
// can delay but never starve detection. The validated range is the
// layer's whole byte range (interleaved layouts scatter a group's members
// across the layer). Guarded arenas are always scanned serially: a pooled
// drain over one is rejected, so the retry counters keep a single writer.
// A scheduler is driven by one thread at a time and owns its scratch, so
// a warm serial sweep or dirty scan performs zero allocations.
//
// Budget semantics: negative = unlimited, zero = starved (the slice
// scans nothing and reports `starved`, letting a coverage-age alarm
// fire upstream), positive = bounded. When both knobs are positive the
// first limit hit ends the slice. Any slice with a positive budget makes
// progress (at least one chunk or dirty group), so budget_bytes == 1
// degenerates to exactly one chunk per slice. A slice also ends when it
// completes a sweep, so per-sweep results can be harvested at a stable
// point.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "core/integrity_scheme.h"

namespace radar {
class ThreadPool;
}

namespace radar::core {

class ScanScheduler {
 public:
  struct Config {
    std::int64_t budget_us = -1;     ///< wall-time budget per slice
    std::int64_t budget_bytes = -1;  ///< weight-byte budget per slice
    std::int64_t chunk_bytes = 16 * 1024;  ///< sweep granule (resume unit)
    int max_retries = 64;  ///< epoch retries per chunk before fallback
  };

  /// One sweep granule: groups [begin, end) of one layer.
  struct Chunk {
    std::size_t layer;
    std::int64_t begin, end;
    std::int64_t bytes;  ///< approx weight bytes the range covers
  };

  /// Dirty-group fraction above which scan_dirty_into runs a full sweep
  /// instead (narrow scans of nearly everything are slower than one
  /// streaming pass).
  static constexpr double kFullScanFraction = 0.25;

  /// Outcome of one run_slice call.
  struct Slice {
    std::int64_t chunks = 0;        ///< sweep chunks scanned
    std::int64_t dirty_groups = 0;  ///< priority dirty groups drained
    std::int64_t bytes = 0;         ///< weight bytes covered
    std::int64_t elapsed_ns = 0;
    bool flagged = false;  ///< any mismatch found (see slice_flags())
    bool wrapped = false;  ///< this slice completed a full-model sweep
    bool starved = false;  ///< zero budget: nothing was scanned
  };

  /// Build the chunk plan for an attached scheme. The scheme must stay
  /// alive (and attached to the scanned model) for the scheduler's
  /// lifetime. Resets cursor, sweep accumulation, and the dirty queue.
  void plan(const IntegrityScheme& scheme, Config cfg);

  bool planned() const { return !plan_.empty(); }
  std::size_t num_chunks() const { return plan_.size(); }
  const std::vector<Chunk>& chunks() const { return plan_; }
  /// Index of the next chunk to scan; survives pauses and scanner-thread
  /// respawns because the scheduler lives with the tenant, not the thread.
  std::size_t cursor() const { return cursor_; }
  const Config& config() const { return cfg_; }
  /// Retune the budget knobs without replanning (runtime QoS dial).
  void set_budget(std::int64_t budget_us, std::int64_t budget_bytes) {
    cfg_.budget_us = budget_us;
    cfg_.budget_bytes = budget_bytes;
  }
  void set_max_retries(int n) { cfg_.max_retries = n; }

  /// Enqueue a group for priority rescan at the head of the next slice
  /// (deduplicated). Fed by recovery writes: re-verifying a just-repaired
  /// group beats waiting for the sweep to come back around.
  void push_dirty(std::size_t layer, std::int64_t group);
  std::size_t dirty_pending() const { return dirty_queue_.size(); }

  /// Scan one budget-bounded slice of `qm` (which the planned scheme must
  /// be attached to). Epoch-validated when the arena has a guard. With an
  /// unlimited budget and a `pool`, the rest of the sweep is drained in
  /// parallel (rejected for guarded arenas); budgeted slices ignore it.
  Slice run_slice(const quant::QuantizedModel& qm,
                  ThreadPool* pool = nullptr);

  /// Restart the sweep and drain it to the wrap, whatever the budget;
  /// returns last_sweep_report(). The whole-model scan entry point.
  const DetectionReport& sweep(const quant::QuantizedModel& qm,
                               ThreadPool* pool = nullptr);

  /// Incremental scan of the groups touched since the model's last dirty
  /// baseline into a reusable report (vectors cleared, capacity kept);
  /// bit-identical to a full scan under the contract above. Its full-scan
  /// fallback restarts the sweep.
  void scan_dirty_into(const quant::QuantizedModel& qm, DetectionReport& out,
                       ThreadPool* pool = nullptr);

  /// Mismatching (layer, group) pairs found by the last run_slice, in
  /// scan order (dirty groups first, then sweep chunks). May repeat a
  /// group that was both dirty-rescanned and swept in one slice.
  const std::vector<std::pair<std::size_t, std::int64_t>>& slice_flags()
      const {
    return slice_flags_;
  }

  /// Flags of the last *completed* sweep — byte-identical to a serial
  /// full scan of the model state the sweep observed. Empty layers (and
  /// an all-empty report) before the first wrap.
  const DetectionReport& last_sweep_report() const { return sweep_report_; }

  /// Reset the cursor and in-progress sweep accumulation (and drop any
  /// queued dirty groups) so the next slice starts a fresh sweep.
  /// last_sweep_report() is left untouched.
  void restart_sweep();

  // ---- stats (single writer: the scanning thread) ----
  std::uint64_t chunks_scanned() const { return chunks_scanned_; }
  std::uint64_t sweeps() const { return sweeps_; }
  std::uint64_t epoch_retries() const { return epoch_retries_; }
  std::uint64_t epoch_fallbacks() const { return epoch_fallbacks_; }
  std::uint64_t dirty_scanned() const { return dirty_scanned_; }
  std::int64_t bytes_scanned() const { return bytes_scanned_; }
  /// Duration of the last completed sweep — the measured coverage
  /// period. 0 before the first wrap.
  std::int64_t last_sweep_ns() const { return last_sweep_ns_; }
  /// Time since the last completed sweep (since plan() before the first
  /// one) — the staleness a coverage deadline is checked against.
  std::int64_t coverage_age_ns() const;

 private:
  /// Flags of one chunk in an uninterruptible drain. Cache-line aligned
  /// so two workers finishing adjacent runs never share a header line.
  struct alignas(64) ChunkSlot {
    std::vector<std::int64_t> flags;
  };

  using Clock = std::chrono::steady_clock;

  /// Run `scan`, a scan of `layer` that writes chunk_flags_, under the
  /// epoch protocol (plain when the arena has no guard).
  template <class Scan>
  void scan_guarded(const quant::QuantizedModel& qm, std::size_t layer,
                    const Scan& scan);
  /// Scan chunks [first, last) into chunk_slots_, one kernel call per
  /// layer piece (flags in the piece's first slot, the rest cleared).
  void scan_run(const quant::QuantizedModel& qm, std::size_t first,
                std::size_t last, ScanScratch& scratch);
  /// Scan chunks [cursor_, end of plan) into chunk_slots_: inline, or
  /// over the pool's workers claiming equal runs off an atomic index.
  void drain(const quant::QuantizedModel& qm, ThreadPool* pool);
  /// Account a scanned chunk to the slice and the sweep in progress;
  /// returns true when it completed the sweep.
  bool finish_chunk(const Chunk& ch, const std::vector<std::int64_t>& flags,
                    Slice& out);

  const IntegrityScheme* scheme_ = nullptr;
  Config cfg_;
  std::vector<Chunk> plan_;
  std::size_t cursor_ = 0;

  std::deque<std::pair<std::size_t, std::int64_t>> dirty_queue_;
  std::set<std::pair<std::size_t, std::int64_t>> dirty_set_;

  DetectionReport building_;      ///< sweep in progress, plan order
  DetectionReport sweep_report_;  ///< last completed sweep
  std::vector<std::int64_t> chunk_flags_;
  std::vector<std::pair<std::size_t, std::int64_t>> slice_flags_;
  /// One per drain worker; [0] serves every serial scan.
  std::vector<ScanScratch> scratch_ = std::vector<ScanScratch>(1);
  std::vector<ChunkSlot> chunk_slots_;  ///< per chunk (unlimited drains)
  std::vector<std::vector<std::int64_t>> dirty_groups_;  ///< per layer
  std::vector<std::uint64_t> epoch_snap_;

  Clock::time_point sweep_start_{};  ///< first chunk of current sweep
  Clock::time_point sweep_end_{};    ///< last wrap (plan() time before)
  bool sweep_started_ = false;

  std::uint64_t chunks_scanned_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t epoch_retries_ = 0;
  std::uint64_t epoch_fallbacks_ = 0;
  std::uint64_t dirty_scanned_ = 0;
  std::int64_t bytes_scanned_ = 0;
  std::int64_t last_sweep_ns_ = 0;
};

}  // namespace radar::core
