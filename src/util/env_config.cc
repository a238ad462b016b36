#include "util/env_config.h"

#include <cerrno>
#include <cstdlib>

namespace odf {

std::string GetEnvString(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::string(value);
}

std::optional<int64_t> ParseInt64(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<int64_t>(parsed);
}

int64_t GetEnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  return ParseInt64(value).value_or(fallback);
}

bool GetEnvBool(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const std::string v(value);
  return v == "1" || v == "true" || v == "TRUE" || v == "on" || v == "ON";
}

}  // namespace odf
