#include "util/binary_io.h"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>

namespace odf {

namespace {

std::array<uint32_t, 256> BuildCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  static const std::array<uint32_t, 256> table = BuildCrc32Table();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void ByteWriter::Append(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

bool ByteReader::Take(void* out, size_t size) {
  if (!ok_ || size > size_ - pos_) {
    ok_ = false;
    std::memset(out, 0, size);
    return false;
  }
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
  return true;
}

uint8_t ByteReader::ReadU8() {
  uint8_t value = 0;
  Take(&value, sizeof value);
  return value;
}

uint32_t ByteReader::ReadU32() {
  uint32_t value = 0;
  Take(&value, sizeof value);
  return value;
}

uint64_t ByteReader::ReadU64() {
  uint64_t value = 0;
  Take(&value, sizeof value);
  return value;
}

int64_t ByteReader::ReadI64() {
  int64_t value = 0;
  Take(&value, sizeof value);
  return value;
}

float ByteReader::ReadFloat() {
  float value = 0;
  Take(&value, sizeof value);
  return value;
}

double ByteReader::ReadDouble() {
  double value = 0;
  Take(&value, sizeof value);
  return value;
}

void ByteReader::ReadFloats(float* data, size_t count) {
  if (count > 0) Take(data, count * sizeof(float));
}

std::string ByteReader::ReadString() {
  const uint64_t size = ReadU64();
  // Bound by the bytes actually present so a corrupted length cannot force
  // a huge allocation.
  if (!ok_ || size > remaining()) {
    ok_ = false;
    return std::string();
  }
  std::string value(static_cast<size_t>(size), '\0');
  if (size > 0) Take(value.data(), static_cast<size_t>(size));
  return value;
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  out->clear();
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  bool ok = true;
  std::array<uint8_t, 1 << 16> chunk;
  for (;;) {
    const size_t got = std::fread(chunk.data(), 1, chunk.size(), file);
    out->insert(out->end(), chunk.data(), chunk.data() + got);
    if (got < chunk.size()) {
      ok = std::ferror(file) == 0;
      break;
    }
  }
  std::fclose(file);
  if (!ok) out->clear();
  return ok;
}

bool WriteFileAtomic(const std::string& path, const void* data, size_t size) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = size == 0 || std::fwrite(data, 1, size, file) == size;
  ok = ok && std::fflush(file) == 0;
  ok = ok && fsync(fileno(file)) == 0;
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return false;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

}  // namespace odf
