// Ablations of RADAR's design choices: each section varies one choice
// the paper fixes and reports what it buys.
//
// (a) interleave skew t: 0 (pure stride) vs 3 (paper) vs no interleave,
//     against the knowledgeable paired-flip attacker;
// (b) mask-key expansion: repeating the 16-bit key (paper's literal
//     scheme) vs counter-mode PRF (library default);
// (c) recovery policy: zero-out (instant, approximate) vs halt-and-reload
//     (exact, pays DRAM refill) — accuracy and modeled time.
#include <cstdio>

#include "bench_util.h"
#include "common/env.h"
#include "exp/workspace.h"
#include "sim/netdesc.h"
#include "sim/timing.h"

int main() {
  using namespace radar;
  const int rounds = static_cast<int>(experiment_rounds(6, 2));
  bench::heading("Ablation", "design choices of the RADAR scheme");

  exp::ModelBundle bundle = exp::load_or_train("resnet20");
  const auto know_profiles =
      exp::load_or_run_knowledgeable(bundle, 10, rounds, 32);
  double mean_flips = 0.0;
  for (const auto& r : know_profiles)
    mean_flips += static_cast<double>(r.flips.size());
  mean_flips /= static_cast<double>(know_profiles.size());

  // (a) skew ablation under the knowledgeable attacker, G = 32.
  std::printf("\n(a) interleave skew vs knowledgeable attacker (G=32, "
              "%.1f flips/round):\n",
              mean_flips);
  std::printf("  %-24s %14s %14s\n", "layout", "detected", "recovered acc");
  bench::rule();
  struct LayoutCfg {
    const char* name;
    bool interleave;
    std::int64_t skew;
  };
  for (const LayoutCfg lc : {LayoutCfg{"contiguous", false, 0},
                             LayoutCfg{"interleave, skew 0", true, 0},
                             LayoutCfg{"interleave, skew 3", true, 3}}) {
    core::SchemeParams rc;
    rc.group_size = 32;
    rc.interleave = lc.interleave;
    rc.skew = lc.skew;
    const auto s =
        exp::summarize_recovery(bundle, know_profiles, rc, 2, 64, 256);
    std::printf("  %-24s %11.2f/%-2.0f %13.2f%%\n", lc.name,
                s.mean_detected, mean_flips,
                100.0 * s.mean_acc_recovered);
  }

  // (b) mask expansion ablation.
  std::printf("\n(b) mask-key expansion (G=32, interleaved):\n");
  std::printf("  %-24s %14s\n", "expansion", "detected");
  bench::rule();
  for (const auto expansion : {core::MaskStream::Expansion::kRepeat,
                               core::MaskStream::Expansion::kPrf}) {
    core::SchemeParams rc;
    rc.group_size = 32;
    rc.expansion = expansion;
    const auto s =
        exp::summarize_recovery(bundle, know_profiles, rc, 2, 64,
                                /*eval=*/0);
    std::printf("  %-24s %11.2f/%-2.0f\n",
                expansion == core::MaskStream::Expansion::kRepeat
                    ? "16-bit key, repeating"
                    : "16-bit key, PRF",
                s.mean_detected, mean_flips);
  }

  // (c) recovery policy: accuracy + modeled time at paper scale.
  std::printf("\n(c) recovery policy (G=32, interleaved, PBFA 10 flips):\n");
  const auto pbfa_profiles = exp::load_or_run_pbfa(
      bundle, 10, static_cast<int>(experiment_rounds(10, 3)));
  {
    core::SchemeParams rc;
    rc.group_size = 32;
    // Zero-out accuracy from the standard replay path.
    const auto zero =
        exp::summarize_recovery(bundle, pbfa_profiles, rc, 2, 10, 256);
    std::printf("  %-24s %14s %14s\n", "policy", "accuracy", "time @R18");
    bench::rule();
    sim::TimingSimulator tsim;
    std::printf("  %-24s %13.2f%% %12.1f us\n", "zero-out (paper)",
                100.0 * zero.mean_acc_recovered,
                1e6 * tsim.zero_out_seconds(32 * 10));
    // Reload restores the clean model exactly: accuracy = clean.
    std::printf("  %-24s %13.2f%% %12.1f ms\n", "halt + clean reload",
                100.0 * bundle.clean_accuracy,
                1e3 * tsim.reload_seconds(
                          sim::resnet18_shape().total_weights()));
  }
  bench::rule();
  std::printf(
      "expected: skew-3 interleave dominates against paired flips; both "
      "key expansions detect (masking is what matters); reload is exact "
      "but ~1000x slower than zero-out.\n");
  return 0;
}
