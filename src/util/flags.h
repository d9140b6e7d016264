// Declarative command-line flags. A tool builds one FlagSet that binds each
// flag name + help text to a typed field, then parses argv strictly against
// that table. --help is generated from the same table, each default read
// from its bound field at registration time, so a default is stated once:
// in the field's initializer.
//
// Parsing is strict: the whole value token must be consumed, values outside
// the target type (ERANGE, or too wide for a narrower field) are rejected,
// unsigned targets reject a leading '-', doubles must be finite, and bool
// flags take no value. Range and contradiction checks on config fields are
// NOT the parser's job -- they live in the config's Validate().

#ifndef QCM_UTIL_FLAGS_H_
#define QCM_UTIL_FLAGS_H_

#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace qcm {

/// Parses all of `text` as a base-10 integer or a finite decimal double
/// that fits T. Leaves *out untouched and returns false otherwise.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

class FlagSet {
 public:
  /// `usage` is the synopsis printed first by --help, e.g.
  /// "qcm_pack (--input PATH | --gen-planted SPEC) --output FILE [flags]".
  explicit FlagSet(std::string usage) : usage_(std::move(usage)) {}

  /// Signed or unsigned integer field.
  template <typename T>
  void Int(const std::string& name, T* target, const std::string& help) {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    using L = std::numeric_limits<T>;
    Add(name, "N", help, std::to_string(*target),
        "an integer in [" + std::to_string(L::min()) + ", " +
            std::to_string(L::max()) + "]",
        [target](const std::string& v) { return ParseNumber(v, target); });
  }

  void Double(const std::string& name, double* target,
              const std::string& help);

  void String(const std::string& name, std::string* target,
              const std::string& metavar, const std::string& help);

  /// A presence flag: given = true. Takes no value.
  void Bool(const std::string& name, bool* target, const std::string& help);

  /// One of a fixed vocabulary; several labels may map to one value (the
  /// first label of the current value is printed as the default).
  template <typename E>
  void Enum(const std::string& name, E* target,
            std::vector<std::pair<std::string, E>> choices,
            const std::string& help) {
    std::string metavar;
    std::string current;
    for (const auto& [label, value] : choices) {
      metavar += (metavar.empty() ? "" : "|") + label;
      if (value == *target && current.empty()) current = label;
    }
    Add(name, metavar, help, current, "one of " + metavar,
        [target, choices = std::move(choices)](const std::string& v) {
          for (const auto& [label, value] : choices) {
            if (label == v) {
              *target = value;
              return true;
            }
          }
          return false;
        });
  }

  /// A field with its own parser -- e.g. a config module's vocabulary
  /// parser, so the names it accepts are declared once, next to the type.
  /// `parse` leaves *target untouched on error; its message is reported
  /// after the flag name.
  template <typename T>
  void Parsed(const std::string& name, T* target, const std::string& metavar,
              const std::string& default_text,
              Status (*parse)(const std::string&, T*),
              const std::string& help) {
    AddParsed(name, metavar, help, default_text,
              [target, parse](const std::string& v) {
                return parse(v, target);
              });
  }

  /// Parses argv[1..argc). "--help" / "-h" stops parsing and sets
  /// help_requested(). Errors are InvalidArgument naming the flag.
  Status Parse(int argc, const char* const* argv);
  bool help_requested() const { return help_requested_; }

  /// The usage line followed by one entry per flag, in registration
  /// order, each ending in "(default <value>)".
  std::string Help() const;

  /// main() front end. Returns the exit code main() should return now --
  /// 0 after printing --help to stdout, 2 after reporting a bad command
  /// line -- or nullopt when the tool should run.
  std::optional<int> ParseCommandLine(int argc, char** argv);

  /// Reports a post-parse usage error (missing or contradictory flags, an
  /// invalid configuration) on stderr; returns 2, the bad-invocation exit.
  int UsageError(const std::string& message) const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  // empty for bool flags
    std::string help;
    std::string default_text;
    std::function<Status(const std::string&)> set;
  };

  /// Registers a flag whose `set` returns false on a malformed value; the
  /// error then names `expected`.
  void Add(const std::string& name, std::string metavar, std::string help,
           std::string default_text, std::string expected,
           std::function<bool(const std::string&)> set);
  void AddParsed(const std::string& name, std::string metavar,
                 std::string help, std::string default_text,
                 std::function<Status(const std::string&)> set);

  std::string usage_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

/// Exit status for a failed step of a tool: 2 when the invocation itself
/// was bad (InvalidArgument), 1 for a runtime failure.
inline int ExitCodeFor(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ? 2 : 1;
}

}  // namespace qcm

#endif  // QCM_UTIL_FLAGS_H_
