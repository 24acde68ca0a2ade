#include "common/fault_points.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"

namespace radar::chaos {

namespace {

/// splitmix64 — the repo's standard cheap stateless mixer (see
/// sim::DramModel's cell hash): full-avalanche, so (seed, index) streams
/// are independent across points and evaluations.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double u01(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry reg;
  return reg;
}

void FaultRegistry::arm(const std::string& point, const FaultSpec& spec) {
  RADAR_REQUIRE(is_plain_name(point),
                "chaos: point name must match [A-Za-z0-9._-]+: " + point);
  RADAR_REQUIRE(spec.prob >= 0.0 && spec.prob <= 1.0,
                "chaos: prob must be in [0,1] for point " + point);
  std::unique_lock lock(mu_);
  auto& slot = points_[point];
  if (slot == nullptr) slot = std::make_unique<Point>();
  slot->spec = spec;
  slot->evals.store(0, std::memory_order_relaxed);
  slot->fires.store(0, std::memory_order_relaxed);
  armed_.store(points_.size(), std::memory_order_release);
}

bool FaultRegistry::disarm(const std::string& point) {
  std::unique_lock lock(mu_);
  const bool erased = points_.erase(point) > 0;
  armed_.store(points_.size(), std::memory_order_release);
  return erased;
}

void FaultRegistry::disarm_all() {
  std::unique_lock lock(mu_);
  points_.clear();
  armed_.store(0, std::memory_order_release);
}

void FaultRegistry::arm_from_spec(const std::string& spec) {
  std::istringstream clauses(spec);
  std::string clause;
  while (std::getline(clauses, clause, ',')) {
    if (clause.empty()) continue;
    std::istringstream fields(clause);
    std::string name, tok;
    FaultSpec fs;
    if (!std::getline(fields, name, ':') || name.empty() ||
        !std::getline(fields, tok, ':'))
      throw Error("chaos: bad clause '" + clause +
                  "' (want point:prob:seed[:param[:max_fires]])");
    try {
      std::size_t pos = 0;
      fs.prob = std::stod(tok, &pos);
      if (pos != tok.size()) throw std::invalid_argument(tok);
      if (!std::getline(fields, tok, ':'))
        throw std::invalid_argument("missing seed");
      fs.seed = std::stoull(tok, &pos);
      if (pos != tok.size()) throw std::invalid_argument(tok);
      if (std::getline(fields, tok, ':')) {
        fs.param = std::stoll(tok, &pos);
        if (pos != tok.size()) throw std::invalid_argument(tok);
      }
      if (std::getline(fields, tok, ':')) {
        fs.max_fires = std::stoll(tok, &pos);
        if (pos != tok.size()) throw std::invalid_argument(tok);
      }
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      throw Error("chaos: bad clause '" + clause +
                  "' (want point:prob:seed[:param[:max_fires]])");
    }
    arm(name, fs);  // validates prob
  }
}

void FaultRegistry::arm_from_env() {
  if (env_armed_.exchange(true, std::memory_order_acq_rel)) return;
  const char* v = std::getenv("RADAR_CHAOS");
  if (v == nullptr || *v == '\0') return;
  arm_from_spec(v);
  for (const PointStats& p : stats())
    RADAR_LOG(kWarn) << "chaos: armed " << p.name << " prob=" << p.spec.prob
                     << " seed=" << p.spec.seed << " param=" << p.spec.param
                     << " max_fires=" << p.spec.max_fires;
}

bool FaultRegistry::fire(const char* point) {
  if (armed_.load(std::memory_order_acquire) == 0) return false;
  std::shared_lock lock(mu_);
  const auto it = points_.find(point);
  if (it == points_.end()) return false;
  Point& p = *it->second;
  const std::uint64_t n = p.evals.fetch_add(1, std::memory_order_relaxed);
  if (p.spec.max_fires >= 0 &&
      p.fires.load(std::memory_order_relaxed) >=
          static_cast<std::uint64_t>(p.spec.max_fires))
    return false;
  // Deterministic per (seed, evaluation index): replaying a chaos run
  // reaches the same verdict at the same evaluation count.
  const bool hit = u01(splitmix64(p.spec.seed ^ (n * 0x9E3779B97F4A7C15ULL))) <
                   p.spec.prob;
  if (!hit) return false;
  // max_fires race note: two threads can pass the cap check concurrently
  // and both fire; the cap is a scripting convenience for single-threaded
  // points (scanner, control plane), not a strict global budget.
  p.fires.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::int64_t FaultRegistry::param(const char* point,
                                  std::int64_t fallback) const {
  if (armed_.load(std::memory_order_acquire) == 0) return fallback;
  std::shared_lock lock(mu_);
  const auto it = points_.find(point);
  if (it == points_.end() || it->second->spec.param == 0) return fallback;
  return it->second->spec.param;
}

std::vector<PointStats> FaultRegistry::stats() const {
  std::shared_lock lock(mu_);
  std::vector<PointStats> out;
  out.reserve(points_.size());
  for (const auto& [name, p] : points_) {
    PointStats s;
    s.name = name;
    s.spec = p->spec;
    s.evals = p->evals.load(std::memory_order_relaxed);
    s.fires = p->fires.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  // unordered_map order is not stable across runs; sort for replies.
  std::sort(out.begin(), out.end(),
            [](const PointStats& a, const PointStats& b) {
              return a.name < b.name;
            });
  return out;
}

std::string FaultRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"points\":[";
  bool first = true;
  for (const PointStats& p : stats()) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << p.name << "\",\"prob\":" << p.spec.prob
       << ",\"seed\":" << p.spec.seed << ",\"param\":" << p.spec.param
       << ",\"max_fires\":" << p.spec.max_fires << ",\"evals\":" << p.evals
       << ",\"fires\":" << p.fires << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace radar::chaos
