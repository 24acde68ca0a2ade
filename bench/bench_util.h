// Shared console-table formatting + machine-readable output for the
// experiment binaries.
//
// Every bench prints (a) the measured series in the same row/column
// structure as the paper's table or figure and (b) the paper's reported
// numbers next to them, so EXPERIMENTS.md can be filled by reading the
// output directly. Benches additionally record measurements into a
// JsonReport, which lands as BENCH_<bench>.json (name, ns/op, bytes/s per
// entry) so CI can track a perf trajectory across PRs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace radar::bench {

inline void heading(const std::string& experiment, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), what.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
}

inline void rule() {
  std::printf("----------------------------------------------------------------\n");
}

/// ns per call of `fn`, repeated until `min_seconds` of wall time (at
/// least `min_reps` calls) so short operations are timed meaningfully.
template <typename F>
double measure_ns_per_op(F&& fn, int min_reps = 3,
                         double min_seconds = 0.05) {
  using clock = std::chrono::steady_clock;
  std::int64_t reps = 0;
  const auto t0 = clock::now();
  auto t1 = t0;
  do {
    fn();
    ++reps;
    t1 = clock::now();
  } while (reps < min_reps ||
           std::chrono::duration<double>(t1 - t0).count() < min_seconds);
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(reps);
}

/// Median, fastest and slowest of repeated timings.
struct Spread {
  double median, min, max;
};

inline Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v.front(), v.back()};
}

/// ns per call of each of `fns`, timed by measure_ns_per_op in `rounds`
/// rounds that rotate which function goes first, so a slow phase of a
/// shared machine spreads over all of them. One Spread per function.
inline std::vector<Spread> interleaved_rounds(
    const std::vector<std::function<void()>>& fns, int rounds,
    double min_seconds = 0.05) {
  std::vector<std::vector<double>> ns(fns.size());
  for (int r = 0; r < rounds; ++r)
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const std::size_t f = (i + static_cast<std::size_t>(r)) % fns.size();
      ns[f].push_back(measure_ns_per_op(fns[f], 3, min_seconds));
    }
  std::vector<Spread> out;
  for (auto& v : ns) out.push_back(spread(std::move(v)));
  return out;
}

/// Machine-readable bench results: one entry per measurement, written as
/// BENCH_<bench>.json into RADAR_BENCH_JSON_DIR (default: cwd).
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Record one measurement. `bytes_per_op` of 0 means "not byte-oriented"
  /// and suppresses the throughput fields for that entry. For the int8
  /// scan paths one byte is one weight, so ns_per_weight == ns/byte.
  void add(const std::string& name, double ns_per_op,
           double bytes_per_op = 0.0) {
    entries_.push_back({name, ns_per_op, bytes_per_op, 0.0, 0.0});
  }

  /// Record a measurement repeated over rounds: ns_per_op is the median,
  /// and the entry also carries the fastest and slowest round.
  void add_spread(const std::string& name, const Spread& t,
                  double bytes_per_op = 0.0) {
    entries_.push_back({name, t.median, bytes_per_op, t.min, t.max});
  }

  /// Write BENCH_<bench>.json; returns the path ("" on failure).
  std::string write() const {
    const char* dir = std::getenv("RADAR_BENCH_JSON_DIR");
    const std::string path =
        (dir != nullptr ? std::string(dir) + "/" : std::string()) +
        "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return "";
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
                 bench_name_.c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.3f",
                   e.name.c_str(), e.ns_per_op);
      if (e.max_ns > 0.0)
        std::fprintf(f, ", \"ns_min\": %.3f, \"ns_max\": %.3f", e.min_ns,
                     e.max_ns);
      if (e.bytes_per_op > 0.0) {
        const double bytes_per_sec = 1e9 * e.bytes_per_op / e.ns_per_op;
        std::fprintf(f,
                     ", \"bytes_per_sec\": %.0f, \"ns_per_weight\": %.4f"
                     ", \"gb_per_sec\": %.3f",
                     bytes_per_sec, e.ns_per_op / e.bytes_per_op,
                     bytes_per_sec / 1e9);
      }
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("  json: %s (%zu entries)\n", path.c_str(), entries_.size());
    return path;
  }

 private:
  struct Entry {
    std::string name;
    double ns_per_op;
    double bytes_per_op;
    double min_ns, max_ns;  ///< spread over rounds (0: single sample)
  };
  std::string bench_name_;
  std::vector<Entry> entries_;
};

}  // namespace radar::bench
