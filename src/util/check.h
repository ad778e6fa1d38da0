// Lightweight runtime-check macros used across the library.
//
// Two tiers, one failure type (dgr::CheckError, so tests can assert on
// either):
//
//   DGR_CHECK / DGR_CHECK_MSG — model rules and API contracts. Fire in
//   every build type: the simulator uses them to enforce knowledge and
//   capacity rules, where silently continuing would invalidate a
//   simulation, and user input validation belongs here too.
//
//   NCC_ASSERT / NCC_ASSERT_MSG — internal debug contracts (executor
//   claim accounting, stale InboxView dereferences). Compiled out
//   entirely in Release builds (NDEBUG): the condition expression is NOT
//   evaluated, so a probe may be arbitrarily expensive (a full-table
//   walk) without taxing production rounds. Use them for conditions that
//   are provably true unless the engine itself has a bug — never for
//   conditions a caller could trigger.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace dgr {

/// Thrown when a DGR_CHECK fails. Carries the failing expression and context.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "DGR_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace detail
}  // namespace dgr

#define DGR_CHECK(expr)                                                \
  do {                                                                 \
    if (!(expr))                                                       \
      ::dgr::detail::check_failed(#expr, __FILE__, __LINE__, "");      \
  } while (false)

#define DGR_CHECK_MSG(expr, msg)                                       \
  do {                                                                 \
    if (!(expr)) {                                                     \
      std::ostringstream os_;                                          \
      /* msg is a stream chain by contract; parens would break it. */  \
      /* NOLINTNEXTLINE(bugprone-macro-parentheses) -- stream chain */ \
      os_ << msg;                                                      \
      ::dgr::detail::check_failed(#expr, __FILE__, __LINE__, os_.str()); \
    }                                                                  \
  } while (false)

// --- Debug-only contract layer ------------------------------------------
// See the file comment: internal engine contracts, zero Release cost (the
// condition is not evaluated when NDEBUG is defined).

#ifndef NDEBUG
#define NCC_ASSERT(expr) DGR_CHECK(expr)
#define NCC_ASSERT_MSG(expr, msg) DGR_CHECK_MSG(expr, msg)
#else
#define NCC_ASSERT(expr) \
  do {                   \
  } while (false)
#define NCC_ASSERT_MSG(expr, msg) \
  do {                            \
  } while (false)
#endif
