#include "common/logging.h"

#include <cstdio>
#include <mutex>

namespace sf {
namespace {
std::mutex g_emit_mu;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return LogLevel::kInfo; }

namespace detail {
void emit_log(LogLevel level, const std::string& msg) {
  std::lock_guard<std::mutex> lock(g_emit_mu);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace detail

}  // namespace sf
