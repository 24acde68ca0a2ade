// SchemeRegistry: string-keyed factory of IntegritySchemes.
//
// Deployment packages, the CLI and the comparison benches all refer to
// protection schemes by name; the registry is the single place that maps a
// name to a constructor. Built-ins (registered on first access):
//
//   radar2 / radar3   paper's 2- / 3-bit group signatures (RadarScheme)
//   crc7 / crc10 /
//   crc13 / crc16     Koopman CRCs over gathered groups (Table V baseline)
//   fletcher          Fletcher-16 over gathered groups
//   hamming-secded    Hamming SEC-DED check words over gathered groups
//
// Additional schemes (new codes, hardware backends) register themselves at
// startup via register_scheme() and instantly work everywhere a scheme id
// is accepted — packages, radar_cli --scheme, ScanScheduler, benches.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/integrity_scheme.h"

namespace radar::core {

class SchemeRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<IntegrityScheme>(const SchemeParams&)>;

  /// Process-wide registry with the built-ins pre-registered.
  static SchemeRegistry& instance();

  /// Register (or replace) a factory under `id`.
  void register_scheme(const std::string& id, Factory factory);

  bool contains(const std::string& id) const;

  /// Instantiate `id` with `params`; throws InvalidArgument on an unknown
  /// id, listing the registered ones.
  std::unique_ptr<IntegrityScheme> create(const std::string& id,
                                          const SchemeParams& params) const;

  /// Registered ids, sorted ascending.
  std::vector<std::string> ids() const;

 private:
  SchemeRegistry();

  std::vector<std::pair<std::string, Factory>> factories_;
};

}  // namespace radar::core
