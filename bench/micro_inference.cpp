// Microbenchmarks of inference and the embedded RADAR scan on the host
// CPU (google-benchmark): how much a software-only deployment pays.
#include <benchmark/benchmark.h>

#include "core/protected_model.h"
#include "core/scheme.h"

namespace {

using namespace radar;

struct Setup {
  Setup() : rng(3), model(nn::ResNetSpec::resnet20(10), rng), qm(model) {
    core::SchemeParams rc;
    rc.group_size = 8;
    scheme = std::make_unique<core::RadarScheme>(rc, 2);
    scheme->attach(qm);
    x = nn::Tensor::randn({1, 3, 32, 32}, rng);
  }
  Rng rng;
  nn::ResNet model;
  quant::QuantizedModel qm;
  std::unique_ptr<core::RadarScheme> scheme;
  nn::Tensor x;
};

Setup& setup() {
  static Setup s;
  return s;
}

void BM_Resnet20ForwardBatch1(benchmark::State& state) {
  Setup& s = setup();
  for (auto _ : state) benchmark::DoNotOptimize(s.qm.forward(s.x));
}
BENCHMARK(BM_Resnet20ForwardBatch1);

void BM_RadarScanResnet20(benchmark::State& state) {
  Setup& s = setup();
  for (auto _ : state) {
    auto report = s.scheme->scan(s.qm);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_RadarScanResnet20);

void BM_ProtectedForwardBatch1(benchmark::State& state) {
  Setup& s = setup();
  core::ProtectedModel pm(s.qm, *s.scheme);
  for (auto _ : state) benchmark::DoNotOptimize(pm.forward(s.x));
}
BENCHMARK(BM_ProtectedForwardBatch1);

void BM_GoldenResign(benchmark::State& state) {
  Setup& s = setup();
  for (auto _ : state) {
    s.scheme->resign(s.qm);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GoldenResign);

}  // namespace
