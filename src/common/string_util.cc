#include "common/string_util.h"

#include <cstdio>
#include <cstdlib>

namespace mars {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

std::string FormatFixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FormatPercent(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", fraction * 100.0);
  return buf;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

std::string GetEnvOr(const std::string& name, const std::string& def) {
  const char* v = std::getenv(name.c_str());
  return v == nullptr ? def : std::string(v);
}

bool EnvFlagSet(const std::string& name) {
  const std::string v = GetEnvOr(name, "");
  return v == "1" || v == "true" || v == "on" || v == "yes";
}

}  // namespace mars
