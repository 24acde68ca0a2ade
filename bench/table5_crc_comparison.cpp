// Table V — Overhead comparison with CRC techniques.
//
// Paper: ResNet-20 G=8: CRC 84.2ms/Δ17.9ms, 28.7 KB vs RADAR
// 69.8ms/Δ3.5ms, 8.2 KB. ResNet-18 G=512: CRC-13 3.585s/Δ0.317s, 36.4 KB
// vs RADAR 3.328s/Δ0.060s, 5.6 KB; CRC-10 (MSB-only) Δ0.315s / 28.0 KB.
//
// We report the modeled times and exact storage, plus a measured
// comparison of every registered IntegrityScheme scanning the same
// seeded ResNet-20 and ResNet-18 arenas at G=512, and ResNet-20 at G=16
// (the campaign_r20 benchmark's setting) — the host-CPU ground truth for
// the relative cost ranking the paper's table asserts; the binary exits
// non-zero when radar2 is not cheaper per byte than every baseline code
// at ResNet-18 — and a campaign-engine sweep of the same
// schemes' detection rates under random MSB faults (the capability axis
// the table's storage/time tradeoff buys). Measured rows are the median of
// 5 interleaved rounds, recorded with their fastest and slowest.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "campaign/campaign.h"
#include "codes/hamming.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/grouped_code.h"
#include "core/scan_scheduler.h"
#include "core/scheme_registry.h"
#include "sim/netdesc.h"
#include "sim/timing.h"

int main() {
  using namespace radar;
  bench::heading("Table V", "RADAR vs CRC: time and storage");

  sim::TimingSimulator sim;
  struct Row {
    const char* id;
    sim::NetworkShape shape;
    std::int64_t g;
    const char* paper_crc;
    const char* paper_radar;
  };
  const Row rows[] = {
      {"resnet20; G=8", sim::resnet20_shape(), 8,
       "84.2ms/17.9ms, 28.7KB", "69.8ms/3.5ms, 8.2KB"},
      {"resnet18; G=512", sim::resnet18_shape(), 512,
       "3.585s/0.317s, 36.4KB", "3.328s/0.060s, 5.6KB"},
  };

  for (const auto& row : rows) {
    const int crc_bits =
        codes::HammingSecDed::parity_bits_for(row.g * 8);  // 7 or 13
    const auto crc = sim.crc_seconds(row.shape, row.g, crc_bits);
    const auto radar = sim.radar_seconds(row.shape, row.g, true);
    std::printf("\n%s:\n", row.id);
    std::printf("  %-10s %12s %12s %12s\n", "scheme", "time", "delta",
                "storage");
    bench::rule();
    std::printf("  CRC-%-6d %10.1fms %10.1fms %9.1f KB   | paper %s\n",
                crc_bits, 1e3 * crc.total(), 1e3 * crc.detection,
                static_cast<double>(
                    row.shape.code_storage_bytes(row.g, crc_bits)) /
                    1024.0,
                row.paper_crc);
    std::printf("  RADAR      %10.1fms %10.1fms %9.1f KB   | paper %s\n",
                1e3 * radar.total(), 1e3 * radar.detection,
                static_cast<double>(
                    row.shape.signature_storage_bytes(row.g, 2)) /
                    1024.0,
                row.paper_radar);
  }

  // MSB-only CRC-10 alternative (paper's last paragraph of §VII.B).
  {
    const auto crc10 = sim.crc_seconds(sim::resnet18_shape(), 512, 10);
    std::printf(
        "\nMSB-only CRC-10 on ResNet-18: delta %.3fs, storage %.1f KB "
        "(paper 0.315s / 28.0 KB)\n",
        crc10.detection,
        static_cast<double>(
            sim::resnet18_shape().code_storage_bytes(512, 10)) /
            1024.0);
  }

  // Host-CPU ground truth at the paper's model sizes: every registered
  // scheme scanning the same seeded ResNet-20 and ResNet-18 arenas at
  // G=512 (and ResNet-20 at G=16) through the scheme-agnostic API. The
  // bench fails when radar2 is not cheaper per byte than every baseline
  // code at ResNet-18.
  bool radar_cheapest = true;
  {
    constexpr int kRounds = 5;
    bench::JsonReport json("table5_crc_comparison");
    struct Measured {
      std::string name;
      nn::ResNetSpec spec;
      std::int64_t group_size;
      bool gated;          ///< radar2 must be the cheapest per byte here
      bool sweep_scaling;  ///< also time pooled scheduler sweeps
    };
    const Measured nets[] = {
        {"resnet20", nn::ResNetSpec::resnet20(10), 512, false, true},
        {"resnet20_g16", nn::ResNetSpec::resnet20(10), 16, false, false},
        {"resnet18", nn::ResNetSpec::resnet18(20, 64), 512, true, false},
    };
    for (const auto& net : nets) {
      core::SchemeParams params;
      params.group_size = net.group_size;
      Rng rng(1);
      nn::ResNet model(net.spec, rng);
      quant::QuantizedModel qm(model);
      const auto bytes = static_cast<double>(qm.total_weights());
      std::printf("\nmeasured on this machine, %s (%lld int8 weights, "
                  "G=%lld):\n",
                  net.name.c_str(), static_cast<long long>(qm.total_weights()),
                  static_cast<long long>(net.group_size));
      std::printf("  %-16s %12s %12s %12s %12s   %s\n", "scheme",
                  "scan ms", "ns/byte", "MB/s", "storage B",
                  "min-max ms");
      bench::rule();
      // Every scheme is timed in kRounds rounds that rotate which scheme
      // goes first, so a slow phase of a shared machine spreads over all
      // of them; a row is the median round, with the fastest and slowest.
      const std::vector<std::string> ids =
          core::SchemeRegistry::instance().ids();
      std::vector<std::unique_ptr<core::IntegrityScheme>> schemes;
      for (const auto& id : ids) {
        schemes.push_back(core::SchemeRegistry::instance().create(id, params));
        schemes.back()->attach(qm);
      }
      std::vector<std::function<void()>> scans;
      for (const auto& scheme : schemes)
        scans.push_back([&qm, s = scheme.get()] { (void)s->scan(qm); });
      const std::vector<bench::Spread> times =
          bench::interleaved_rounds(scans, kRounds);
      double radar2_ns = 0.0, cheapest_code_ns = 0.0;
      std::string cheapest_code;
      for (std::size_t si = 0; si < ids.size(); ++si) {
        const std::string& id = ids[si];
        const bench::Spread& t = times[si];
        const double ns = t.median;
        json.add_spread("scan/" + net.name + "/" + id, t, bytes);
        std::printf("  %-16s %12.3f %12.3f %12.1f %12lld   %.3f-%.3f\n",
                    id.c_str(), ns / 1e6, ns / bytes, bytes / ns * 1e3,
                    static_cast<long long>(
                        schemes[si]->signature_storage_bytes()),
                    t.min / 1e6, t.max / 1e6);
        if (id == "radar2") radar2_ns = ns;
        const bool baseline =
            dynamic_cast<const core::GroupedCodeScheme*>(
                schemes[si].get()) != nullptr;
        if (baseline && (cheapest_code.empty() || ns < cheapest_code_ns)) {
          cheapest_code = id;
          cheapest_code_ns = ns;
        }
      }
      std::printf("  cheapest baseline %s costs %.1fx the radar2 scan\n",
                  cheapest_code.c_str(), cheapest_code_ns / radar2_ns);
      if (net.gated && !(radar2_ns < cheapest_code_ns)) radar_cheapest = false;

      if (!net.sweep_scaling) continue;
      // Whole-model sweep scaling over a scan pool on the cheapest scheme.
      auto radar = core::SchemeRegistry::instance().create("radar2", params);
      radar->attach(qm);
      core::ScanScheduler sched;
      sched.plan(*radar, {});
      std::printf("\nscheduler sweep scaling (radar2, %s):\n",
                  net.name.c_str());
      const std::size_t thread_counts[] = {1, 2, 4};
      std::vector<std::unique_ptr<ThreadPool>> pools;
      for (const std::size_t threads : thread_counts)
        pools.push_back(threads > 1 ? std::make_unique<ThreadPool>(threads)
                                    : nullptr);
      std::vector<std::function<void()>> sweeps;
      for (const auto& pool : pools)
        sweeps.push_back(
            [&sched, &qm, p = pool.get()] { (void)sched.sweep(qm, p); });
      const std::vector<bench::Spread> sweep_times =
          bench::interleaved_rounds(sweeps, kRounds);
      for (std::size_t ti = 0; ti < pools.size(); ++ti) {
        const bench::Spread& t = sweep_times[ti];
        json.add_spread(
            "scan_sweep/radar2/t" + std::to_string(thread_counts[ti]), t,
            bytes);
        std::printf("  %zu thread(s): %10.1f us/scan   (%.1f-%.1f)\n",
                    thread_counts[ti], t.median / 1e3, t.min / 1e3,
                    t.max / 1e3);
      }
    }
    std::printf(
        "\nclaim %s: at ResNet-18 the RADAR scan is %s per byte than "
        "every baseline code.\n",
        radar_cheapest ? "reproduced" : "NOT reproduced",
        radar_cheapest ? "cheaper" : "not cheaper");
    json.write();
  }

  // Capability side of the tradeoff: every registered scheme against the
  // same random-MSB fault campaign (detection rate per storage byte).
  {
    campaign::CampaignSpec spec;
    spec.name = "table5/detection";
    spec.model = "tiny";
    spec.train = false;
    spec.trials = static_cast<int>(experiment_rounds(5, 2));
    spec.seed = 0x7AB1E5;
    spec.attackers = {{.kind = "random_msb", .flips = 10}};
    for (const auto& id : core::SchemeRegistry::instance().ids()) {
      campaign::SchemeSpec s;
      s.id = id;
      s.params.group_size = 512;
      spec.schemes.push_back(s);
    }
    const auto report =
        campaign::CampaignRunner(bench_threads()).run(spec);
    std::printf("\ndetection of 10 random MSB faults (G=512, %d trials):\n",
                spec.trials);
    std::printf("  %-16s %14s %10s\n", "scheme", "detection", "missed");
    bench::rule();
    for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
      const auto& c = report.cell(0, 0, si);
      std::printf("  %-16s %13.1f%% %9.0f%%\n", spec.schemes[si].id.c_str(),
                  100.0 * c.detection_rate, 100.0 * c.miss_rate);
    }
    std::printf(
        "RADAR trades a few detection points for an order of magnitude "
        "less storage than the CRC family.\n");
  }
  return radar_cheapest ? 0 : 1;
}
