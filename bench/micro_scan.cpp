// micro_scan — scan-path throughput and end-to-end campaign eval speedup.
//
// Two sections, both landing in BENCH_scan.json (the perf-trajectory
// artifact this PR starts recording):
//
//  1. Kernel throughput (GB/s): the pre-PR scalar scatter-add kernel
//     (reimplemented here verbatim as the baseline) vs the vectorized
//     range kernel over every group, on a 4M-weight interleaved layer at
//     the paper's G=512; the same layer swept in the scheduler's default
//     16 KiB group windows; the gather-free contiguous path; and the O(G)
//     narrow per-group scan the incremental path is built from.
//
//  2. End-to-end: the PR-2 campaign smoke spec evaluated with the full
//     engine (per-cell attach, whole-model restore, full rescans) vs the
//     incremental engine (cached schemes, dirty-group scans, write-level
//     undo). Reports must be byte-identical (the exit code checks only
//     that). The eval-phase ratio kFull / kIncremental is reported for this
//     build as the median of interleaved rounds, with its min-max, and has
//     no target: both engines keep changing, so it describes where the two
//     stand, not a claim.
//
// Usage: bench_micro_scan [campaign_spec.json]
//   (default spec path assumes running from build/: ../examples/specs/)
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bench_util.h"
#include "campaign/campaign.h"
#include "common/rng.h"
#include "core/scan_scheduler.h"
#include "core/scan_scratch.h"
#include "core/scanner.h"

namespace {

using namespace radar;

std::vector<std::int8_t> make_weights(std::size_t n) {
  Rng rng(42);
  std::vector<std::int8_t> w(n);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return w;
}

/// The pre-PR LayerScanner kernel, kept verbatim as the bench baseline:
/// per-original-index group/sign tables, one scalar scatter-add pass into
/// a freshly allocated int64 vector (the allocation was part of the cost).
struct ScalarScatterScanner {
  std::int64_t num_groups;
  std::vector<std::int32_t> group_of;
  std::vector<std::int8_t> sign;

  ScalarScatterScanner(const core::GroupLayout& layout,
                       const core::MaskStream& mask)
      : num_groups(layout.num_groups()),
        group_of(static_cast<std::size_t>(layout.num_weights())),
        sign(static_cast<std::size_t>(layout.num_weights())) {
    const std::int64_t g = layout.group_size();
    for (std::int64_t grp = 0; grp < num_groups; ++grp) {
      for (std::int64_t slot = 0; slot < g; ++slot) {
        const std::int64_t i = layout.member(grp, slot);
        if (i < 0) continue;
        group_of[static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>(grp);
        sign[static_cast<std::size_t>(i)] = mask.bit(grp * g + slot) ? -1 : 1;
      }
    }
  }

  std::vector<std::int64_t> masked_sums(
      std::span<const std::int8_t> weights) const {
    std::vector<std::int64_t> sums(static_cast<std::size_t>(num_groups), 0);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      sums[static_cast<std::size_t>(group_of[i])] +=
          static_cast<std::int64_t>(weights[i]) * sign[i];
    }
    return sums;
  }
};

volatile std::int64_t g_sink = 0;

}  // namespace

int main(int argc, char** argv) {
  bench::heading("micro_scan", "scan kernels + incremental campaign eval");
  bench::JsonReport json("scan");

  // ---- section 1: kernel throughput ----
  const std::int64_t kW = std::int64_t{1} << 22;  // 4M weights
  const std::int64_t kG = 512;                    // paper group size
  const auto w = make_weights(static_cast<std::size_t>(kW));
  const std::span<const std::int8_t> wspan(w.data(), w.size());
  const auto bytes = static_cast<double>(kW);
  const core::MaskStream mask(0xBEEF);
  const core::GroupLayout inter = core::GroupLayout::interleaved(kW, kG, 3);
  const core::GroupLayout contig = core::GroupLayout::contiguous(kW, kG);

  struct Row {
    const char* name;
    double ns_per_op;
    double bytes_per_op;
  };
  std::vector<Row> rows;
  auto run = [&](const char* name, double per_op_bytes, auto&& fn) {
    const double ns = bench::measure_ns_per_op(fn);
    rows.push_back({name, ns, per_op_bytes});
    json.add(name, ns, per_op_bytes);
  };

  {
    const ScalarScatterScanner scalar(inter, mask);
    run("scan_scalar_scatter_512", bytes, [&] {
      const auto sums = scalar.masked_sums(wspan);
      g_sink = g_sink + sums[0];
    });
  }
  {
    const core::LayerScanner scanner(inter, mask, 2);
    const std::int64_t ng = scanner.num_groups();
    core::ScanScratch scratch;
    run("scan_vectorized_512", bytes, [&] {
      scanner.masked_sums_range_into(wspan, 0, ng, scratch);
      g_sink = g_sink + scratch.sums[0];
    });
    // The same layer swept in the group windows ScanScheduler plans at
    // its default chunk size: the per-chunk kernel cost of budgeted and
    // epoch-guarded sweeps, next to the whole-range row above.
    const std::int64_t chunk = core::ScanScheduler::Config{}.chunk_bytes;
    const std::int64_t windows = (kW + chunk - 1) / chunk;
    const std::int64_t per = (ng + windows - 1) / windows;
    run("scan_range_16k_512", bytes, [&] {
      for (std::int64_t b = 0; b < ng; b += per) {
        scanner.masked_sums_range_into(wspan, b, std::min(b + per, ng),
                                       scratch);
        g_sink = g_sink + scratch.sums[0];
      }
    });
    run("narrow_scan_per_group_512", static_cast<double>(kG), [&] {
      g_sink = g_sink + scanner.group_sum(wspan, 17);
    });
  }
  {
    const core::LayerScanner scanner(contig, mask, 2);
    core::ScanScratch scratch;
    run("scan_vectorized_contig_512", bytes, [&] {
      scanner.masked_sums_range_into(wspan, 0, scanner.num_groups(), scratch);
      g_sink = g_sink + scratch.sums[0];
    });
  }

  std::printf("  %-28s %16s %10s %9s\n", "kernel", "ns/op", "ns/weight",
              "GB/s");
  bench::rule();
  for (const auto& row : rows) {
    std::printf("  %-28s %16.1f %10.4f %9.2f\n", row.name, row.ns_per_op,
                row.ns_per_op / row.bytes_per_op,
                row.bytes_per_op / row.ns_per_op);
  }

  // ---- section 2: end-to-end campaign eval phase ----
  const std::string spec_path =
      argc > 1 ? argv[1] : "../examples/specs/campaign_smoke.json";
  const auto spec = campaign::CampaignSpec::from_json_file(spec_path);
  const campaign::CampaignRunner full(1, 1, campaign::ScanMode::kFull);
  const campaign::CampaignRunner inc(1, 1, campaign::ScanMode::kIncremental);
  // The eval phase is milliseconds, so one sample of the ratio swings
  // with machine noise. Rounds alternate which engine runs first, and the
  // report reads the median ratio; the min-max range shows the spread.
  // Reuse nothing across runners so both pay identical profile costs.
  constexpr int kRounds = 9;
  std::vector<double> full_eval, inc_eval, ratio;
  bool identical = true;
  for (int round = 0; round < kRounds; ++round) {
    campaign::CampaignReport rf, ri;
    if (round % 2 == 0) {
      rf = full.run(spec);
      ri = inc.run(spec);
    } else {
      ri = inc.run(spec);
      rf = full.run(spec);
    }
    full_eval.push_back(rf.eval_seconds);
    inc_eval.push_back(ri.eval_seconds);
    ratio.push_back(rf.eval_seconds / ri.eval_seconds);
    identical = identical && rf.to_json(false) == ri.to_json(false);
  }
  const bench::Spread speedup = bench::spread(ratio);
  const double full_med = bench::spread(full_eval).median;
  const double inc_med = bench::spread(inc_eval).median;
  const auto n_units = static_cast<double>(spec.num_trials_total());
  bench::rule();
  std::printf("  campaign '%s': %.0f eval units, threads=1, %d rounds\n",
              spec.name.c_str(), n_units, kRounds);
  std::printf("  %-28s %12.3f ms  (%8.1f us/trial, median)\n", "eval_full",
              1e3 * full_med, 1e6 * full_med / n_units);
  std::printf("  %-28s %12.3f ms  (%8.1f us/trial, median)\n",
              "eval_incremental", 1e3 * inc_med, 1e6 * inc_med / n_units);
  std::printf("  %-28s %12.2fx  (min %.2fx, max %.2fx)\n",
              "eval_speedup (median)", speedup.median, speedup.min,
              speedup.max);
  std::printf("  reports byte-identical: %s\n", identical ? "yes" : "NO");
  // The speedup ratio is printed only — every JSON entry keeps ns_per_op
  // time semantics so the trajectory stays machine-comparable.
  json.add("campaign_eval_full", 1e9 * full_med);
  json.add("campaign_eval_incremental", 1e9 * inc_med);
  bench::note(
      "eval_speedup is kFull / kIncremental eval time on this build (median "
      "of interleaved rounds, min-max shows the spread); it has no target. "
      "The exit code checks only that the reports are byte-identical");
  json.write();
  return identical ? 0 : 1;
}
