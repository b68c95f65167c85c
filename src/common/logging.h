#ifndef TELL_COMMON_LOGGING_H_
#define TELL_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace tell {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Minimum level; messages below it are dropped. kWarn keeps tests and
/// benchmarks quiet.
inline constexpr LogLevel kMinLogLevel = LogLevel::kWarn;

namespace internal {

/// Builds one log line and emits it (thread-safely) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Emits the message then aborts the process. Used by TELL_CHECK.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  template <typename T>
  FatalLogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace tell

#define TELL_LOG(level)                                        \
  if (::tell::LogLevel::level < ::tell::kMinLogLevel) {       \
  } else                                                       \
    ::tell::internal::LogMessage(::tell::LogLevel::level, __FILE__, __LINE__)

/// Fatal invariant check: active in all build types (database invariants
/// must not silently disappear in release builds).
#define TELL_CHECK(condition)                                           \
  if (condition) {                                                      \
  } else                                                                \
    ::tell::internal::FatalLogMessage(__FILE__, __LINE__, #condition)

/// Debug-only check.
#ifdef NDEBUG
#define TELL_DCHECK(condition) TELL_CHECK(true || (condition))
#else
#define TELL_DCHECK(condition) TELL_CHECK(condition)
#endif

#endif  // TELL_COMMON_LOGGING_H_
