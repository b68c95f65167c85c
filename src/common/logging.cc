#include "common/logging.h"

#include <cstdio>
#include <mutex>

namespace tell {
namespace {

std::mutex& LogMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

void Emit(LogLevel level, const std::string& text) {
  std::lock_guard<std::mutex> lock(LogMutex());
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), text.c_str());
  std::fflush(stderr);
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << file << ":" << line << " ";
}

LogMessage::~LogMessage() { Emit(level_, stream_.str()); }

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  stream_ << file << ":" << line << " CHECK failed: " << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  Emit(LogLevel::kError, stream_.str());
  std::abort();
}

}  // namespace internal
}  // namespace tell
