// Error handling primitives for the RADAR library.
//
// All library-level failures throw radar::Error (a std::runtime_error) so
// callers can distinguish library faults from standard-library exceptions.
// The RADAR_CHECK / RADAR_REQUIRE macros capture the failing expression and
// source location.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace radar {

/// Base exception for all RADAR library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a function argument violates its contract.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when serialized data is malformed or truncated.
class SerializationError : public Error {
 public:
  explicit SerializationError(const std::string& what) : Error(what) {}
};

/// True for a non-empty name made only of [A-Za-z0-9._-]: safe to write
/// unescaped into JSON, log lines and the daemon's space-separated
/// protocol. Tenant and chaos point names must be plain.
inline bool is_plain_name(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvalidArgument(os.str());
}
}  // namespace detail

}  // namespace radar

/// Internal invariant check; always enabled (errors here indicate bugs).
#define RADAR_CHECK(expr)                                                     \
  do {                                                                        \
    if (!(expr))                                                              \
      ::radar::detail::throw_check_failure("RADAR_CHECK", #expr, __FILE__,    \
                                           __LINE__, "");                     \
  } while (0)

/// Invariant check with a context message (streamable not required).
#define RADAR_CHECK_MSG(expr, msg)                                            \
  do {                                                                        \
    if (!(expr))                                                              \
      ::radar::detail::throw_check_failure("RADAR_CHECK", #expr, __FILE__,    \
                                           __LINE__, (msg));                  \
  } while (0)

/// Public-API argument validation.
#define RADAR_REQUIRE(expr, msg)                                              \
  do {                                                                        \
    if (!(expr))                                                              \
      ::radar::detail::throw_check_failure("RADAR_REQUIRE", #expr, __FILE__,  \
                                           __LINE__, (msg));                  \
  } while (0)
