#include "util/binary_io.h"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>

namespace odf {

namespace {

// Slicing-by-8 tables: table[0] is the bytewise table, and table[t][i] is
// the CRC register after byte i is followed by t zero bytes, so one lookup
// per byte of an 8-byte word advances the register by the whole word.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables BuildCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t t = 1; t < tables.size(); ++t) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = BuildCrc32Tables();

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  const Crc32Tables& t = kCrc32Tables;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  // Eight bytes per step: the low word carries the register, and byte j of
  // the word is followed by 7 − j more bytes of this step.
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLe<uint32_t>(bytes) ^ c;
    const uint32_t hi = LoadLe<uint32_t>(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
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
