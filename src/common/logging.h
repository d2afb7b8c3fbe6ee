// Lightweight leveled logging to stderr.
//
// Benches print their tables to stdout; diagnostics go through SF_LOG to
// stderr.
#pragma once

#include <sstream>
#include <string>

namespace sf {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global minimum level (kInfo); messages below it are dropped.
LogLevel log_level();

namespace detail {
void emit_log(LogLevel level, const std::string& msg);

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }
  ~LogStream() { emit_log(level_, os_.str()); }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail
}  // namespace sf

#define SF_LOG(level)                                      \
  if (::sf::LogLevel::level < ::sf::log_level()) {         \
  } else                                                   \
    ::sf::detail::LogStream(::sf::LogLevel::level)
