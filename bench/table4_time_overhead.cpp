// Table IV — Time overhead of RADAR (gem5 in the paper; our analytic
// timing model over the paper-scale network shapes — README "Reproducing
// the paper").
//
// Paper: ResNet-20 66.3 ms -> 68.7 ms (69.8 ms interleaved) = 3.56%
// (5.27%); ResNet-18 3.268 s -> 3.287 s (3.328 s) = 0.58% (1.83%).
#include <cstdio>

#include "bench_util.h"
#include "sim/netdesc.h"
#include "sim/timing.h"

int main() {
  using namespace radar;
  bench::heading("Table IV", "RADAR inference-time overhead");
  bench::note(
      "analytic Cortex-M4F-class model; constants calibrated on the "
      "paper's baseline and non-interleaved RADAR rows; interleaved rows "
      "and batch scaling are predictions");

  sim::TimingSimulator sim;
  struct Row {
    const char* id;
    sim::NetworkShape shape;
    std::int64_t g;
    const char* paper;
  };
  const Row rows[] = {
      {"resnet20", sim::resnet20_shape(), 8,
       "66.3ms -> 68.7ms (69.8ms) = 3.56% (5.27%)"},
      {"resnet18", sim::resnet18_shape(), 512,
       "3.268s -> 3.287s (3.328s) = 0.58% (1.83%)"},
  };

  std::printf("  %-9s %12s %14s %16s %10s %10s\n", "model", "baseline",
              "RADAR", "RADAR (ilv)", "ovh%", "ovh% ilv");
  bench::rule();
  for (const auto& row : rows) {
    const auto plain = sim.radar_seconds(row.shape, row.g, false);
    const auto inter = sim.radar_seconds(row.shape, row.g, true);
    std::printf("  %-9s %10.1fms %12.1fms %14.1fms %9.2f%% %9.2f%%\n",
                row.id, 1e3 * plain.baseline, 1e3 * plain.total(),
                1e3 * inter.total(), plain.overhead_pct(),
                inter.overhead_pct());
    std::printf("  paper: %s\n", row.paper);
  }

  bench::rule();
  std::printf("batch amortization (ResNet-18, G=512, interleaved):\n");
  std::printf("  %-8s %12s\n", "batch", "overhead");
  for (const std::int64_t batch : {1, 2, 4, 8, 16}) {
    const auto t =
        sim.radar_seconds_batched(sim::resnet18_shape(), 512, true, batch);
    std::printf("  %-8lld %11.3f%%\n", static_cast<long long>(batch),
                t.overhead_pct());
  }
  std::printf(
      "claim reproduced if single-batch overhead is <2%% for ResNet-18 and "
      "<6%% for ResNet-20, shrinking with batch size.\n");

  bench::JsonReport json("table4_time_overhead");
  for (const auto& row : rows) {
    const auto plain = sim.radar_seconds(row.shape, row.g, false);
    const auto inter = sim.radar_seconds(row.shape, row.g, true);
    json.add(std::string("model/") + row.id + "/baseline",
             1e9 * plain.baseline);
    json.add(std::string("model/") + row.id + "/radar", 1e9 * plain.total());
    json.add(std::string("model/") + row.id + "/radar_interleaved",
             1e9 * inter.total());
  }
  json.write();
  return 0;
}
