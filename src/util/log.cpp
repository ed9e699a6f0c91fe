#include "util/log.hpp"

#include <cctype>
#include <chrono>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace m3d::util {
namespace {

std::mutex g_mu;

std::atomic<bool> env_level_set{false};

LogLevel initial_level() {
  const char* env = std::getenv("M3D_LOG_LEVEL");
  if (env != nullptr) {
    if (const auto parsed = parse_log_level(env); parsed.has_value()) {
      env_level_set = true;
      return *parsed;
    }
    std::fprintf(stderr, "[warn ] ignoring unknown M3D_LOG_LEVEL '%s'\n", env);
  }
  return LogLevel::kWarn;
}

// Read on every log call (and by every span), so it is an atomic rather
// than state under g_mu, which only serializes emission.
std::atomic<LogLevel>& level_ref() {
  static std::atomic<LogLevel> level{initial_level()};
  return level;
}

const char* prefix(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "[debug]";
    case LogLevel::kInfo: return "[info ]";
    case LogLevel::kWarn: return "[warn ]";
    case LogLevel::kError: return "[error]";
    case LogLevel::kSilent: return "";
  }
  return "";
}

// Anchored at static-init time, i.e. effectively process start.
const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

double elapsed_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_start)
      .count();
}

}  // namespace

std::optional<LogLevel> parse_log_level(const std::string& name) {
  std::string low;
  for (char c : name) {
    low.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (low == "debug") return LogLevel::kDebug;
  if (low == "info") return LogLevel::kInfo;
  if (low == "warn" || low == "warning") return LogLevel::kWarn;
  if (low == "error") return LogLevel::kError;
  if (low == "silent" || low == "off") return LogLevel::kSilent;
  return std::nullopt;
}

void set_log_level(LogLevel level) { level_ref().store(level); }

void set_default_log_level(LogLevel level) {
  auto& ref = level_ref();  // force env initialization first
  if (!env_level_set) ref.store(level);
}

LogLevel log_level() { return level_ref().load(std::memory_order_relaxed); }

void log(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  std::lock_guard<std::mutex> lock(g_mu);
  // One fprintf per line: stderr is unbuffered but a single call keeps the
  // line atomic even when several threads log at once.
  std::fprintf(stderr, "%s %8.3fs %s\n", prefix(level), elapsed_s(),
               msg.c_str());
}

}  // namespace m3d::util
