#include "util/env_config.h"

#include <cstdlib>

namespace odf {

std::string GetEnvString(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::string(value);
}

int64_t GetEnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<int64_t>(parsed);
}

bool GetEnvBool(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const std::string v(value);
  return v == "1" || v == "true" || v == "TRUE" || v == "on" || v == "ON";
}

}  // namespace odf
