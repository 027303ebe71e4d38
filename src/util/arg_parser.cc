#include "util/arg_parser.h"

#include <cstdlib>
#include <cstring>

namespace rne {

namespace {
bool IsFlag(const char* token) { return std::strncmp(token, "--", 2) == 0; }
}  // namespace

StatusOr<ArgParser> ArgParser::Parse(int argc, char* const* argv, int begin,
                                     const std::set<std::string>& switches) {
  ArgParser args;
  for (int i = begin; i < argc; ++i) {
    if (!IsFlag(argv[i])) {
      args.positionals_.emplace_back(argv[i]);
      continue;
    }
    const std::string key = argv[i] + 2;
    if (key.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    if (args.values_.count(key) > 0) {
      return Status::InvalidArgument("flag --" + key +
                                     " given more than once");
    }
    if (switches.count(key) > 0) {
      args.values_[key] = "1";
      continue;
    }
    if (i + 1 >= argc || IsFlag(argv[i + 1])) {
      return Status::InvalidArgument("flag --" + key + " is missing a value");
    }
    args.values_[key] = argv[i + 1];
    ++i;
  }
  return args;
}

Status ArgParser::RequireKnown(const std::set<std::string>& allowed) const {
  for (const auto& [key, value] : values_) {
    if (allowed.count(key) == 0) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  return Status::Ok();
}

std::string ArgParser::Get(const std::string& key,
                           const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

StatusOr<long> ArgParser::GetInt(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + key +
                                   " expects an integer, got '" + it->second +
                                   "'");
  }
  return value;
}

StatusOr<double> ArgParser::GetDouble(const std::string& key,
                                      double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + key +
                                   " expects a number, got '" + it->second +
                                   "'");
  }
  return value;
}

}  // namespace rne
