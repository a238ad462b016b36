#include "util/logging.h"

#include <chrono>
#include <cstdio>

namespace odf {
namespace internal {

void EmitLogLine(LogLevel level, const char* file, int line,
                 const std::string& message) {
  static const char* const kNames[] = {"INFO", "WARN", "ERROR"};
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count();
  std::fprintf(stderr, "[%s %lld.%03lld %s:%d] %s\n",
               kNames[static_cast<int>(level)],
               static_cast<long long>(ms / 1000),
               static_cast<long long>(ms % 1000), base, line,
               message.c_str());
}

}  // namespace internal

}  // namespace odf
