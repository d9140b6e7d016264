#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

namespace qcm {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Appends `words` space-separated and wrapped to `width` columns,
/// continuation lines indented by `indent` spaces.
void AppendWrapped(const std::vector<std::string>& words, size_t indent,
                   size_t width, std::string* out) {
  size_t col = indent;
  for (const std::string& word : words) {
    if (col > indent && col + 1 + word.size() > width) {
      *out += "\n" + std::string(indent, ' ');
      col = indent;
    } else if (col > indent) {
      *out += ' ';
      ++col;
    }
    *out += word;
    col += word.size();
  }
}

}  // namespace

void FlagSet::Add(const std::string& name, std::string metavar,
                  std::string help, std::string default_text,
                  std::string expected,
                  std::function<bool(const std::string&)> set) {
  AddParsed(name, std::move(metavar), std::move(help),
            std::move(default_text),
            [expected = std::move(expected),
             set = std::move(set)](const std::string& v) {
              return set(v) ? Status::OK()
                            : Status::InvalidArgument(
                                  "invalid value \"" + v + "\" (expected " +
                                  expected + ")");
            });
}

void FlagSet::AddParsed(const std::string& name, std::string metavar,
                        std::string help, std::string default_text,
                        std::function<Status(const std::string&)> set) {
  for (const Flag& f : flags_) {
    if (f.name == name) {
      std::fprintf(stderr, "FlagSet: %s registered twice\n", name.c_str());
      std::abort();
    }
  }
  flags_.push_back({name, std::move(metavar), std::move(help),
                    std::move(default_text), std::move(set)});
}

void FlagSet::Double(const std::string& name, double* target,
                     const std::string& help) {
  Add(name, "F", help, FormatDouble(*target), "a finite decimal number",
      [target](const std::string& v) { return ParseNumber(v, target); });
}

void FlagSet::String(const std::string& name, std::string* target,
                     const std::string& metavar, const std::string& help) {
  Add(name, metavar, help, "\"" + *target + "\"", "a value",
      [target](const std::string& v) {
        *target = v;
        return true;
      });
}

void FlagSet::Bool(const std::string& name, bool* target,
                   const std::string& help) {
  Add(name, "", help, *target ? "true" : "false", "",
      [target](const std::string&) {
        *target = true;
        return true;
      });
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  const Flag* last_bool = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::OK();
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (f.name == arg) flag = &f;
    }
    if (flag == nullptr) {
      if (last_bool != nullptr && arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument(last_bool->name +
                                       " takes no value (got \"" + arg +
                                       "\")");
      }
      return Status::InvalidArgument(
          (arg.rfind("-", 0) == 0 ? "unknown flag " : "unexpected argument ") +
          arg);
    }
    last_bool = nullptr;
    if (flag->metavar.empty()) {
      flag->set("");
      last_bool = flag;
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(flag->name + " requires a value (" +
                                     flag->metavar + ")");
    }
    const std::string value = argv[++i];
    if (Status s = flag->set(value); !s.ok()) {
      return Status::InvalidArgument(flag->name + ": " + s.message());
    }
  }
  return Status::OK();
}

std::string FlagSet::Help() const {
  constexpr size_t kIndent = 30;
  constexpr size_t kWidth = 79;
  std::string out = "usage: " + usage_ + "\n\nflags:\n";
  for (const Flag& f : flags_) {
    std::string head = "  " + f.name;
    if (!f.metavar.empty()) head += " " + f.metavar;
    out += head;
    size_t col = head.size();
    if (col + 2 > kIndent) {
      out += "\n";
      col = 0;
    }
    out += std::string(kIndent - col, ' ');
    // The default stays one unbreakable word so it greps on one line.
    std::vector<std::string> words;
    for (size_t start = 0; start < f.help.size();) {
      size_t end = f.help.find(' ', start);
      if (end == std::string::npos) end = f.help.size();
      if (end > start) words.push_back(f.help.substr(start, end - start));
      start = end + 1;
    }
    words.push_back("(default " + f.default_text + ")");
    AppendWrapped(words, kIndent, kWidth, &out);
    out += "\n";
  }
  return out;
}

std::optional<int> FlagSet::ParseCommandLine(int argc, char** argv) {
  const Status s = Parse(argc, argv);
  if (!s.ok()) return UsageError(s.message());
  if (help_requested_) {
    std::fputs(Help().c_str(), stdout);
    return 0;
  }
  return std::nullopt;
}

int FlagSet::UsageError(const std::string& message) const {
  const std::string program = usage_.substr(0, usage_.find(' '));
  std::fprintf(stderr, "%s: %s\n(run %s --help for the flag list)\n",
               program.c_str(), message.c_str(), program.c_str());
  return 2;
}

}  // namespace qcm
