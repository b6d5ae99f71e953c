// Small string helpers shared across the library.
#ifndef MARS_COMMON_STRING_UTIL_H_
#define MARS_COMMON_STRING_UTIL_H_

#include <string>
#include <vector>

namespace mars {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(const std::string& text, char sep);

/// Removes leading/trailing whitespace.
std::string Trim(const std::string& text);

/// Formats a double with `digits` decimal places (e.g. "0.3311").
std::string FormatFixed(double value, int digits);

/// Formats a value as a signed percentage with two decimals ("+27.53%").
std::string FormatPercent(double fraction);

/// Case-sensitive prefix test.
bool StartsWith(const std::string& text, const std::string& prefix);

/// Reads environment variable `name`, returning `def` when unset.
std::string GetEnvOr(const std::string& name, const std::string& def);

/// True when environment variable `name` is set to a truthy value
/// ("1", "true", "on", "yes"); used for MARS_BENCH_FAST smoke runs.
bool EnvFlagSet(const std::string& name);

}  // namespace mars

#endif  // MARS_COMMON_STRING_UTIL_H_
