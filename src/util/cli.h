// Minimal command-line flag parsing for examples and benchmark drivers.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown
// flags, positional arguments and malformed numbers are a UsageError so
// typos in experiment scripts fail loudly. Program mains go through
// run_main, which turns a UsageError into the usage line and exit 2.
#pragma once

#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace krsp::util {

/// A command line the program cannot accept: bad input, not a bug.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Cli {
 public:
  Cli(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0)
        throw UsageError("unexpected argument: " + arg);
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    touched_.push_back(name);
    return values_.count(name) > 0;
  }

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& def) const {
    touched_.push_back(name);
    const auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t def) const {
    const auto s = get_string(name, "");
    if (s.empty()) return def;
    return parse<std::int64_t>(name, s, [](const std::string& v,
                                           std::size_t* end) {
      return std::stoll(v, end);
    });
  }

  [[nodiscard]] double get_double(const std::string& name, double def) const {
    const auto s = get_string(name, "");
    if (s.empty()) return def;
    return parse<double>(name, s, [](const std::string& v, std::size_t* end) {
      return std::stod(v, end);
    });
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool def) const {
    const auto s = get_string(name, "");
    if (s.empty()) return def;
    return s == "true" || s == "1" || s == "yes";
  }

  /// Call after all get_* calls: rejects flags that nothing consumed.
  void reject_unknown() const {
    for (const auto& [name, value] : values_) {
      bool known = false;
      for (const auto& t : touched_)
        if (t == name) known = true;
      if (!known)
        throw UsageError("unknown flag --" + name + "=" + value);
    }
  }

 private:
  // Whole-token numeric parse: "12x" and "x" are usage errors, not 12 or
  // an uncaught std::invalid_argument.
  template <typename T, typename Parse>
  static T parse(const std::string& name, const std::string& value,
                 Parse parse_value) {
    std::size_t end = 0;
    try {
      const auto parsed = parse_value(value, &end);
      if (end == value.size()) return parsed;
    } catch (const std::logic_error&) {
      // invalid_argument or out_of_range: reported below.
    }
    throw UsageError("bad value for --" + name + ": " + value);
  }

  std::map<std::string, std::string> values_;
  mutable std::vector<std::string> touched_;
};

/// A program's main: parses the command line and returns `body(cli)`. A
/// bad command line (UsageError) prints its message and `usage` to stderr
/// and returns 2; any other exception prints its message and returns 1.
/// Nothing escapes to terminate.
template <typename Body>
int run_main(int argc, const char* const* argv, std::string_view usage,
             Body&& body) {
  std::string_view name = argc > 0 ? argv[0] : "";
  name.remove_prefix(name.rfind('/') + 1);  // npos + 1 == 0
  try {
    const Cli cli(argc, argv);
    return body(cli);
  } catch (const UsageError& e) {
    std::cerr << name << ": " << e.what() << "\n" << usage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace krsp::util
