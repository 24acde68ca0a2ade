// micro_model — weight-arena storage ops + whole-model scan thread
// scaling of the scheduler's byte-range chunk plan.
//
// Three sections, all landing in BENCH_model.json:
//
//  1. Arena storage ops (GB/s): a raw memcpy baseline (the bandwidth
//     ceiling every other row is judged against, measured in-bench on
//     the same buffers sizes), snapshot capture (one memcpy), restore
//     (changed-layer probe + targeted resync; clean restores run at
//     compare speed), and snapshot compare (dispatched bytes_equal) on a
//     wide ResNet whose conv layers span the realistic ~100x size spread.
//
//  2. Whole-model scan thread scaling 1..8: the same radar2 G=512
//     ScanScheduler sweep (equal-byte group-range chunks through
//     scan_layer_range_into), serial at t1 and drained over a T-thread
//     pool above it. Reports are asserted byte-identical to the serial
//     scan at every thread count, and throughput is asserted
//     monotone-or-flat in the thread count (exit 1 on regression): the
//     drain clamps workers to the hardware core count, so requesting
//     more threads must never scan slower than requesting fewer. Each
//     row is the median of 7 interleaved rounds over the thread counts.
//
//  3. Load balance (machine-independent): the critical-path bytes of a
//     greedy T-worker schedule over the scheduler's chunk plan, against
//     one work item per layer, and the parallel speedup each bounds.
//     Layer-granular items are limited by the largest layer (~14% of
//     this model in ONE item), so that bound flattens near 7x regardless
//     of thread count; the byte-range chunks keep it near-linear. This
//     is the acceptance number on machines (like 1-core CI sandboxes)
//     where wall-clock scaling cannot show up.
//
// Usage: bench_micro_model
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/scan_scheduler.h"
#include "core/scheme_registry.h"
#include "nn/resnet.h"
#include "quant/qmodel.h"

namespace {

using namespace radar;

volatile std::int64_t g_sink = 0;

/// Makespan (critical-path bytes) of a greedy longest-first schedule of
/// `items` onto `workers` — the quantity that bounds parallel scan
/// speedup on real multicore hardware, independent of this machine.
std::int64_t critical_path_bytes(std::vector<std::int64_t> items,
                                 std::size_t workers) {
  std::sort(items.begin(), items.end(), std::greater<>());
  std::vector<std::int64_t> load(workers, 0);
  for (const std::int64_t it : items)
    *std::min_element(load.begin(), load.end()) += it;
  return *std::max_element(load.begin(), load.end());
}

}  // namespace

int main() {
  bench::heading("micro_model",
                 "arena storage ops + scan thread scaling (byte-range "
                 "chunks)");
  bench::JsonReport json("model");

  // A wide ResNet: realistic conv-size skew at multi-MB arena scale.
  nn::ResNetSpec spec;
  spec.num_classes = 10;
  spec.base_width = 64;
  spec.blocks_per_stage = {3, 3, 3};
  spec.name = "wide";
  Rng rng(7);
  nn::ResNet model(spec, rng);
  quant::QuantizedModel qm(model);
  const double bytes = static_cast<double>(qm.total_weights());
  std::int64_t min_layer = qm.layer(0).size(), max_layer = min_layer;
  for (std::size_t li = 1; li < qm.num_layers(); ++li) {
    min_layer = std::min(min_layer, qm.layer(li).size());
    max_layer = std::max(max_layer, qm.layer(li).size());
  }
  std::printf("  model: %lld weights in %zu layers (%.1f MiB arena, "
              "layer sizes %lld..%lld)\n",
              static_cast<long long>(qm.total_weights()), qm.num_layers(),
              static_cast<double>(qm.arena().size_bytes()) / (1 << 20),
              static_cast<long long>(min_layer),
              static_cast<long long>(max_layer));

  // ---- section 1: arena storage ops ----
  std::printf("  %-28s %16s %9s\n", "op", "ns/op", "GB/s");
  bench::rule();
  auto run = [&](const char* name, double per_op_bytes, auto&& fn) {
    const double ns = bench::measure_ns_per_op(fn);
    json.add(name, ns, per_op_bytes);
    std::printf("  %-28s %16.1f %9.2f\n", name, ns,
                per_op_bytes / ns);
    return ns;
  };
  // Same-machine bandwidth ceiling: one arena-sized memcpy between
  // buffers allocated like the snapshot blobs. The 80%-of-memcpy
  // acceptance for compare/restore reads off this row, not off a number
  // measured on some other box.
  std::vector<std::int8_t> mc_src(
      static_cast<std::size_t>(qm.arena().size_bytes()), 1);
  std::vector<std::int8_t> mc_dst(mc_src.size());
  const double memcpy_ns = run("memcpy_baseline", bytes, [&] {
    std::memcpy(mc_dst.data(), mc_src.data(), mc_src.size());
    g_sink = g_sink + mc_dst[0];
  });
  quant::ArenaSnapshot snap = qm.snapshot();
  quant::ArenaSnapshot other = qm.snapshot();
  run("snapshot_capture", bytes, [&] {
    snap.capture(qm.arena());
    g_sink = g_sink + snap.bytes()[0];
  });
  const double compare_ns = run("snapshot_compare", bytes, [&] {
    g_sink = g_sink + (snap == other ? 1 : 0);
  });
  const double restore_ns = run("restore", bytes, [&] {
    qm.restore(snap);
    g_sink = g_sink + qm.get_code(0, 0);
  });
  std::printf("  compare / memcpy bandwidth: %.2f   restore / memcpy: "
              "%.2f\n",
              memcpy_ns / compare_ns, memcpy_ns / restore_ns);

  // ---- section 2: scan thread scaling ----
  core::SchemeParams params;
  params.group_size = 512;
  auto scheme = core::SchemeRegistry::instance().create("radar2", params);
  scheme->attach(qm);
  const core::DetectionReport serial_report = scheme->scan(qm);

  bench::rule();
  std::printf("  %-28s %16s %9s %9s\n", "full scan", "ns/op", "GB/s",
              "speedup");
  bench::rule();
  core::ScanScheduler sched;
  sched.plan(*scheme, {});
  // The thread counts are measured in interleaved rounds (t1 t2 t4 t8,
  // each round starting one count later) and compared by their medians:
  // on a shared box, CPU steal comes in bursts that would otherwise land
  // on whichever count happened to run during one.
  constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
  constexpr std::size_t kCounts = std::size(kThreadCounts);
  constexpr int kRounds = 7;
  std::vector<std::unique_ptr<ThreadPool>> pools;
  bool identical = true;
  for (const std::size_t threads : kThreadCounts) {
    pools.push_back(threads > 1 ? std::make_unique<ThreadPool>(threads)
                                : nullptr);
    // Warm up pool + scratch.
    identical = identical && sched.sweep(qm, pools.back().get()).flagged ==
                                 serial_report.flagged;
  }
  std::vector<std::vector<double>> samples(kCounts);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < kCounts; ++k) {
      const std::size_t i = (static_cast<std::size_t>(round) + k) % kCounts;
      samples[i].push_back(bench::measure_ns_per_op([&] {
        g_sink = g_sink + sched.sweep(qm, pools[i].get()).num_flagged_groups();
      }));
    }
  }
  std::vector<std::pair<std::size_t, double>> byterange_ns;
  for (std::size_t i = 0; i < kCounts; ++i) {
    std::vector<double>& v = samples[i];
    std::sort(v.begin(), v.end());
    const double ns = v[v.size() / 2];
    char name[64];
    std::snprintf(name, sizeof(name), "scan_byterange_t%zu",
                  kThreadCounts[i]);
    byterange_ns.emplace_back(kThreadCounts[i], ns);
    json.add(name, ns, bytes);
    std::printf("  %-28s %16.1f %9.2f %8.2fx\n", name, ns, bytes / ns,
                byterange_ns.front().second / ns);
  }
  std::printf("  reports byte-identical across thread counts: %s\n",
              identical ? "yes" : "NO");
  // Monotone-or-flat gate: more requested threads must never make the
  // byte-range scan slower (10% tolerance absorbs run-to-run noise; the
  // pre-fix oversubscription collapse was a 2x regression, far outside
  // it).
  bool scaling_ok = true;
  for (std::size_t i = 1; i < byterange_ns.size(); ++i) {
    if (byterange_ns[i].second > byterange_ns[i - 1].second * 1.10) {
      scaling_ok = false;
      std::printf("  SCALING REGRESSION: scan_byterange_t%zu is %.0f%% "
                  "slower than t%zu\n",
                  byterange_ns[i].first,
                  100.0 * (byterange_ns[i].second /
                               byterange_ns[i - 1].second -
                           1.0),
                  byterange_ns[i - 1].first);
    }
  }
  std::printf("  byte-range scaling monotone-or-flat: %s\n",
              scaling_ok ? "yes" : "NO");
  std::printf("  (wall-clock rows measured on %u hardware core(s) — "
              "see the load-balance bounds below for the\n"
              "   machine-independent scaling story)\n",
              std::thread::hardware_concurrency());

  // ---- section 3: machine-independent load balance ----
  std::vector<std::int64_t> layer_items, range_items;
  for (std::size_t li = 0; li < qm.num_layers(); ++li)
    layer_items.push_back(qm.layer(li).size());
  for (const core::ScanScheduler::Chunk& ch : sched.chunks())
    range_items.push_back(ch.bytes);
  bench::rule();
  std::printf("  %-10s %18s %18s %12s %12s\n", "threads",
              "layer critpath B", "range critpath B", "layer bound",
              "range bound");
  bench::rule();
  for (const std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    const std::int64_t cp_layer = critical_path_bytes(layer_items, threads);
    const std::int64_t cp_range = critical_path_bytes(range_items, threads);
    const double bound_layer = bytes / static_cast<double>(cp_layer);
    const double bound_range = bytes / static_cast<double>(cp_range);
    std::printf("  %-10zu %18lld %18lld %11.2fx %11.2fx\n", threads,
                static_cast<long long>(cp_layer),
                static_cast<long long>(cp_range), bound_layer, bound_range);
    char name[64];
    std::snprintf(name, sizeof(name), "critpath_layer_t%zu_bytes", threads);
    json.add(name, static_cast<double>(cp_layer));
    std::snprintf(name, sizeof(name), "critpath_byterange_t%zu_bytes",
                  threads);
    json.add(name, static_cast<double>(cp_range));
  }
  bench::note(
      "claim reproduced if the byte-range critical path keeps shrinking "
      "with threads while the layer-parallel one flattens at the largest "
      "layer, and all reports are byte-identical (critpath entries store "
      "bytes in the ns_per_op field)");
  json.write();
  return identical && scaling_ok ? 0 : 1;
}
