#ifndef ODF_UTIL_LOGGING_H_
#define ODF_UTIL_LOGGING_H_

#include <cstdio>
#include <sstream>
#include <string>

namespace odf {

/// Log severities, in increasing order.
enum class LogLevel : int { kInfo = 0, kWarning = 1, kError = 2 };

namespace internal {

/// Emits one formatted log line to stderr.
void EmitLogLine(LogLevel level, const char* file, int line,
                 const std::string& message);

/// RAII message builder used by the ODF_LOG macro.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage() { EmitLogLine(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal

}  // namespace odf

#define ODF_LOG(severity)                                              \
  ::odf::internal::LogMessage(::odf::LogLevel::k##severity, __FILE__, \
                              __LINE__)

#endif  // ODF_UTIL_LOGGING_H_
