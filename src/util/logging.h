// Minimal leveled logger. Thread-safe (each LogMessage flushes one formatted
// line under a mutex). Intended for engine diagnostics; mining inner loops
// must not log.

#ifndef QCM_UTIL_LOGGING_H_
#define QCM_UTIL_LOGGING_H_

#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace qcm {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// Sets the process-wide minimum level that is emitted. Default: kInfo,
/// overridable at startup by the QCM_LOG_LEVEL environment variable
/// (same spellings as ParseLogLevel).
void SetLogLevel(LogLevel level);
/// Returns the current minimum emitted level.
LogLevel GetLogLevel();

/// Parses a level name ("debug", "info", "warning"/"warn", "error",
/// "off"; case-sensitive). Returns false (and leaves *out untouched) on
/// anything else.
bool ParseLogLevel(const std::string& name, LogLevel* out);

/// The spellings ParseLogLevel accepts, for a --log-level flag table.
const std::vector<std::pair<std::string, LogLevel>>& LogLevelNames();

/// Tags every subsequent log line with this process's cluster identity
/// ("[I r2 e1 file:line]"). Workers call it once their rank/incarnation
/// epoch are known; single-process tools never do (no tag).
void SetLogContext(int rank, uint32_t epoch);

namespace internal {

/// One log line; streams like std::ostream and emits on destruction.
/// When `fatal` is set the destructor aborts the process after flushing.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, bool fatal = false);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  bool fatal_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace qcm

#define QCM_LOG_ENABLED(level) \
  (static_cast<int>(level) >= static_cast<int>(::qcm::GetLogLevel()))

#define QCM_LOG(level)                                                    \
  if (!QCM_LOG_ENABLED(::qcm::LogLevel::level)) {                         \
  } else                                                                  \
    ::qcm::internal::LogMessage(::qcm::LogLevel::level, __FILE__,         \
                                __LINE__)                                 \
        .stream()

#define QCM_DLOG QCM_LOG(kDebug)
#define QCM_ILOG QCM_LOG(kInfo)
#define QCM_WLOG QCM_LOG(kWarning)
#define QCM_ELOG QCM_LOG(kError)

/// Always-on invariant check; aborts with a message on failure.
#define QCM_CHECK(cond)                                                      \
  if (cond) {                                                                \
  } else                                                                     \
    ::qcm::internal::LogMessage(::qcm::LogLevel::kError, __FILE__, __LINE__, \
                                /*fatal=*/true)                              \
            .stream()                                                        \
        << "CHECK failed: " #cond " "

#endif  // QCM_UTIL_LOGGING_H_
