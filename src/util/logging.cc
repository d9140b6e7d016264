#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace qcm {

namespace {

/// Startup level: kInfo unless QCM_LOG_LEVEL names something else.
int InitialLevel() {
  LogLevel level = LogLevel::kInfo;
  const char* env = std::getenv("QCM_LOG_LEVEL");
  if (env != nullptr) ParseLogLevel(env, &level);  // bad value: keep kInfo
  return static_cast<int>(level);
}

std::atomic<int> g_min_level{InitialLevel()};
std::mutex g_log_mutex;
/// Cluster identity prefix; rank < 0 = untagged (single-process tools).
std::atomic<int> g_log_rank{-1};
std::atomic<uint32_t> g_log_epoch{0};

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

const std::vector<std::pair<std::string, LogLevel>>& LogLevelNames() {
  static const std::vector<std::pair<std::string, LogLevel>> kNames = {
      {"debug", LogLevel::kDebug},     {"info", LogLevel::kInfo},
      {"warning", LogLevel::kWarning}, {"warn", LogLevel::kWarning},
      {"error", LogLevel::kError},     {"off", LogLevel::kOff},
  };
  return kNames;
}

bool ParseLogLevel(const std::string& name, LogLevel* out) {
  for (const auto& [label, level] : LogLevelNames()) {
    if (label == name) {
      *out = level;
      return true;
    }
  }
  return false;
}

void SetLogContext(int rank, uint32_t epoch) {
  g_log_rank.store(rank, std::memory_order_relaxed);
  g_log_epoch.store(epoch, std::memory_order_relaxed);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), fatal_(fatal) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelTag(level_);
  const int rank = g_log_rank.load(std::memory_order_relaxed);
  if (rank >= 0) {
    stream_ << " r" << rank << " e"
            << g_log_epoch.load(std::memory_order_relaxed);
  }
  stream_ << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  using Clock = std::chrono::system_clock;
  auto now = Clock::to_time_t(Clock::now());
  struct tm tm_buf;
  localtime_r(&now, &tm_buf);
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%02d:%02d:%02d", tm_buf.tm_hour,
                tm_buf.tm_min, tm_buf.tm_sec);
  {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::fprintf(stderr, "%s %s\n", ts, stream_.str().c_str());
    std::fflush(stderr);
  }
  if (fatal_) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace qcm
