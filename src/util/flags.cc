#include "util/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/stringutil.h"

namespace hypertree {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

bool Flags::CheckKnown(std::initializer_list<std::string_view> known) const {
  bool ok = true;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      ok = false;
    }
  }
  return ok;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

long Flags::GetInt(const std::string& name, long def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  long v = std::strtol(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : def;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  return (end != nullptr && *end == '\0') ? v : def;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes";
}

}  // namespace hypertree
