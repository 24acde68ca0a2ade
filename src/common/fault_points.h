// Chaos fault-injection registry: every failure mode the serving stack
// must survive, injectable on demand and deterministic under a seed.
//
// A *fault point* is a named site in the code ("scanner.stall",
// "golden.torn_read", ...) that asks the registry whether it should fail
// right now. Unarmed points cost one relaxed atomic load — the registry
// short-circuits when nothing is armed, so production binaries carry the
// hooks for free. An armed point fires pseudo-randomly with probability
// `prob`, driven by a splitmix64 stream over (seed, evaluation index):
// the same seed always yields the same fire/no-fire sequence regardless
// of wall clock or thread interleaving at the *point* level, which is
// what makes chaos runs replayable and CI-assertable.
//
// Arming:
//   - env:     RADAR_CHAOS=point:prob:seed[:param[:max_fires]],...
//              (parsed once by arm_from_env(); ModelHost calls it)
//   - daemon:  CHAOS ARM <point> <prob> <seed> [param] [max_fires]
//   - code:    FaultRegistry::instance().arm("worker.stall", {...})
//
// `param` is a point-specific integer (stall duration in ms for the
// stall points; unused elsewhere); `max_fires` caps how many times the
// point fires before going quiet (-1 = unlimited) so a single torn read
// or a single crash can be scripted exactly.
//
// The registry is process-global and thread-safe: fire() may be called
// from any thread; arm/disarm take a writer lock and are expected to be
// rare (test setup, daemon control plane).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace radar::chaos {

/// Canonical point names wired through the stack (the registry accepts
/// any string — these are the ones the serve layer evaluates).
namespace points {
inline constexpr const char* kScannerStall = "scanner.stall";
inline constexpr const char* kScannerCrash = "scanner.crash";
inline constexpr const char* kWorkerException = "worker.exception";
inline constexpr const char* kWorkerStall = "worker.stall";
inline constexpr const char* kInferSlow = "infer.slow";
inline constexpr const char* kRecoveryFail = "recovery.fail";
inline constexpr const char* kGoldenTornRead = "golden.torn_read";
inline constexpr const char* kQueueStall = "queue.stall";
inline constexpr const char* kSocketPartialWrite = "socket.partial_write";
inline constexpr const char* kSocketDisconnect = "socket.disconnect";
inline constexpr const char* kWriterStall = "epoch.writer_stall";
/// save_package stops its own process (SIGSTOP) after the weight payload
/// and before the rename, so a crash test can kill a writer mid-write.
inline constexpr const char* kPackageMidWrite = "package.mid_write";
}  // namespace points

/// How one armed point behaves.
struct FaultSpec {
  double prob = 1.0;            ///< fire probability per evaluation [0,1]
  std::uint64_t seed = 0;       ///< stream seed (replayable)
  std::int64_t param = 0;       ///< point-specific (stall ms, ...)
  std::int64_t max_fires = -1;  ///< stop firing after N fires (-1: never)
};

/// Point-in-time counters of one armed point.
struct PointStats {
  std::string name;
  FaultSpec spec;
  std::uint64_t evals = 0;  ///< times the point was reached
  std::uint64_t fires = 0;  ///< times it actually fired
};

class FaultRegistry {
 public:
  static FaultRegistry& instance();

  /// Arm (or re-arm, resetting counters) one point. Throws on prob
  /// outside [0,1] or a name that is not plain (see is_plain_name).
  void arm(const std::string& point, const FaultSpec& spec);
  /// Disarm one point; false when it was not armed.
  bool disarm(const std::string& point);
  void disarm_all();
  /// Number of armed points (0 makes fire() a single atomic load).
  std::size_t armed() const {
    return armed_.load(std::memory_order_acquire);
  }

  /// Parse and arm a comma-separated spec list
  /// ("point:prob:seed[:param[:max_fires]],..."). Throws radar::Error on
  /// malformed input, naming the offending clause.
  void arm_from_spec(const std::string& spec);
  /// Arm from $RADAR_CHAOS exactly once per process (later calls no-op),
  /// logging what was armed. Safe to call from multiple entry points.
  void arm_from_env();

  /// The hot-path query: should the named point fail now? Counts the
  /// evaluation and, deterministically per (seed, evaluation index),
  /// decides. Always false for unarmed points or exhausted max_fires.
  bool fire(const char* point);

  /// The armed `param` of a point (fallback when unarmed) — stall
  /// durations and the like.
  std::int64_t param(const char* point, std::int64_t fallback) const;

  std::vector<PointStats> stats() const;
  /// One-line JSON of every armed point (daemon CHAOS STATS reply).
  std::string to_json() const;

 private:
  FaultRegistry() = default;

  struct Point {
    FaultSpec spec;
    std::atomic<std::uint64_t> evals{0};
    std::atomic<std::uint64_t> fires{0};
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Point>> points_;
  std::atomic<std::size_t> armed_{0};
  std::atomic<bool> env_armed_{false};
};

/// Convenience wrappers for call sites.
inline bool fire(const char* point) {
  return FaultRegistry::instance().fire(point);
}
inline std::int64_t param(const char* point, std::int64_t fallback) {
  return FaultRegistry::instance().param(point, fallback);
}

}  // namespace radar::chaos
