#ifndef ODF_UTIL_BINARY_IO_H_
#define ODF_UTIL_BINARY_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace odf {

// Every on-disk format here is little-endian and is read and written in
// host byte order.
static_assert(std::endian::native == std::endian::little,
              "the binary formats assume a little-endian host");

/// Little-endian scalar load without alignment assumptions (a mapped trip
/// section is only 4-byte aligned at best).
template <typename T>
T LoadLe(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof value);
  return value;
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes,
/// continuing from `crc` (pass 0 to start). Matches zlib's crc32().
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

/// Appends little-endian binary data to an in-memory buffer. Used to build
/// checkpoint payloads so the CRC can be computed over the exact bytes
/// before anything touches the filesystem.
class ByteWriter {
 public:
  void WriteU8(uint8_t value) { Append(&value, sizeof value); }
  void WriteU32(uint32_t value) { Append(&value, sizeof value); }
  void WriteU64(uint64_t value) { Append(&value, sizeof value); }
  void WriteI64(int64_t value) { Append(&value, sizeof value); }
  void WriteFloat(float value) { Append(&value, sizeof value); }
  void WriteDouble(double value) { Append(&value, sizeof value); }
  void WriteFloats(const float* data, size_t count) {
    if (count > 0) Append(data, count * sizeof(float));
  }
  void WriteString(const std::string& value) {
    WriteU64(value.size());
    if (!value.empty()) Append(value.data(), value.size());
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

 private:
  void Append(const void* data, size_t size);

  std::vector<uint8_t> bytes_;
};

/// Bounds-checked cursor over an in-memory buffer. It never aborts: reading
/// past the end (or any earlier failure) latches
/// `ok() == false` and every subsequent read returns a zero value, so
/// corrupted or hostile checkpoint bytes can be parsed safely and rejected
/// with a typed error instead of crashing the process.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  float ReadFloat();
  double ReadDouble();
  /// Reads `count` floats into `data`; on failure `data` is zero-filled.
  void ReadFloats(float* data, size_t count);
  /// Reads a length-prefixed string; empty on failure.
  std::string ReadString();

 private:
  bool Take(void* out, size_t size);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Reads a whole file into `out`. Returns false on any I/O error (missing
/// file, unreadable, …); `out` is cleared first either way.
bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

/// Crash-safe file replacement: writes `size` bytes to `path + ".tmp"`,
/// flushes and fsyncs them to stable storage, then atomically renames over
/// `path`. A crash at any point leaves either the old file or the new one,
/// never a torn mixture. Returns false on failure (the temp file is
/// removed).
bool WriteFileAtomic(const std::string& path, const void* data, size_t size);

}  // namespace odf

#endif  // ODF_UTIL_BINARY_IO_H_
