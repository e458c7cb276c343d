// Tiny leveled logger. Off by default so large experiment sweeps stay quiet;
// tests and debugging sessions can raise the level per-run.
//
// When a structured trace sink is active (obs/trace.hpp installs itself via
// set_log_sink), every emitted line is additionally forwarded to it, so log
// output lands inside the trace timeline instead of disappearing on stderr.
#pragma once

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "common/names.hpp"

namespace hydra {

enum class LogLevel : int { kOff = 0, kError = 1, kInfo = 2, kDebug = 3, kTrace = 4 };

/// Hook receiving every formatted log line (installed by the trace sink).
using LogSinkFn = void (*)(LogLevel, const char*);

namespace detail {
inline LogLevel& log_level_ref() noexcept {
  static LogLevel level = LogLevel::kOff;
  return level;
}

inline std::atomic<LogSinkFn>& log_sink_ref() noexcept {
  static std::atomic<LogSinkFn> sink{nullptr};
  return sink;
}

__attribute__((format(printf, 2, 3))) inline void log_line(LogLevel level,
                                                           const char* fmt, ...) {
  char buf[1024];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  std::fprintf(stderr, "%s\n", buf);
  if (const LogSinkFn sink = log_sink_ref().load(std::memory_order_acquire)) {
    sink(level, buf);
  }
}
}  // namespace detail

inline void set_log_level(LogLevel level) noexcept { detail::log_level_ref() = level; }
[[nodiscard]] inline LogLevel log_level() noexcept { return detail::log_level_ref(); }

[[nodiscard]] inline bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(detail::log_level_ref());
}

/// Routes formatted log lines to `sink` in addition to stderr; nullptr
/// uninstalls. The sink must be callable from any thread.
inline void set_log_sink(LogSinkFn sink) noexcept {
  detail::log_sink_ref().store(sink, std::memory_order_release);
}

inline constexpr NameRow<LogLevel> kLogLevelNames[] = {
    {LogLevel::kOff, "off"},
    {LogLevel::kError, "error"},
    {LogLevel::kInfo, "info"},
    {LogLevel::kDebug, "debug"},
    {LogLevel::kTrace, "trace"},
};

[[nodiscard]] inline const char* to_string(LogLevel level) noexcept {
  return name_of(kLogLevelNames, level);
}

/// Inverse of to_string; nullopt on unknown names. Used by the --log-level
/// CLI flag.
[[nodiscard]] inline std::optional<LogLevel> parse_log_level(std::string_view name) {
  return value_of(kLogLevelNames, name);
}

}  // namespace hydra

// printf-style logging; evaluates arguments only when the level is active.
#define HYDRA_LOG(level, ...)                                      \
  do {                                                             \
    if (::hydra::log_enabled(level)) {                             \
      ::hydra::detail::log_line(level, __VA_ARGS__);               \
    }                                                              \
  } while (false)

#define HYDRA_LOG_ERROR(...) HYDRA_LOG(::hydra::LogLevel::kError, __VA_ARGS__)
#define HYDRA_LOG_INFO(...) HYDRA_LOG(::hydra::LogLevel::kInfo, __VA_ARGS__)
#define HYDRA_LOG_DEBUG(...) HYDRA_LOG(::hydra::LogLevel::kDebug, __VA_ARGS__)
#define HYDRA_LOG_TRACE(...) HYDRA_LOG(::hydra::LogLevel::kTrace, __VA_ARGS__)
