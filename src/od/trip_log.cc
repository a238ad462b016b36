#include "od/trip_log.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "util/binary_io.h"
#include "util/check.h"
#include "util/logging.h"

namespace odf {
namespace {

constexpr uint32_t kMagic = 0x4C54444Fu;  // "ODTL" little-endian
constexpr uint32_t kVersion = 1;
// Fixed payload bytes before the directory: interval_minutes, num_days,
// num_intervals, num_trips, num_regions.
constexpr uint64_t kFixedPayloadBytes = 4 + 4 + 8 + 8 + 8;
constexpr uint64_t kDirEntryBytes = 8 + 8 + 4;
// magic + version + payload size prefix.
constexpr uint64_t kPreludeBytes = 4 + 4 + 8;

}  // namespace

const char* TripLogStatusName(TripLogStatus status) {
  switch (status) {
    case TripLogStatus::kOk: return "ok";
    case TripLogStatus::kIoError: return "io-error";
    case TripLogStatus::kBadMagic: return "bad-magic";
    case TripLogStatus::kBadVersion: return "bad-version";
    case TripLogStatus::kTruncated: return "truncated";
    case TripLogStatus::kCorrupt: return "corrupt";
    case TripLogStatus::kBadRecord: return "bad-record";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// VectorTripSource
// ---------------------------------------------------------------------------

VectorTripSource::VectorTripSource(const std::vector<Trip>* trips,
                                   const TimePartition& partition)
    : trips_(trips),
      index_(static_cast<size_t>(partition.NumIntervals())) {
  ODF_CHECK(trips != nullptr);
  for (size_t i = 0; i < trips->size(); ++i) {
    const int64_t t = partition.IntervalOf((*trips)[i].departure_s);
    ODF_CHECK_GE(t, 0);
    ODF_CHECK_LT(t, partition.NumIntervals());
    index_[static_cast<size_t>(t)].push_back(static_cast<int64_t>(i));
  }
}

int64_t VectorTripSource::NumIntervals() const {
  return static_cast<int64_t>(index_.size());
}

void VectorTripSource::IntervalTrips(int64_t t,
                                     std::vector<Trip>* out) const {
  ODF_CHECK_GE(t, 0);
  ODF_CHECK_LT(t, NumIntervals());
  out->clear();
  const auto& indices = index_[static_cast<size_t>(t)];
  out->reserve(indices.size());
  for (int64_t i : indices) out->push_back((*trips_)[static_cast<size_t>(i)]);
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

bool WriteTripLog(const std::vector<Trip>& trips,
                  const TimePartition& partition, int64_t num_regions,
                  const std::string& path) {
  ODF_CHECK_GT(num_regions, 0);
  const int64_t num_intervals = partition.NumIntervals();

  // Stable bucket pass: record order inside an interval is arrival order.
  std::vector<std::vector<int64_t>> buckets(
      static_cast<size_t>(num_intervals));
  for (size_t i = 0; i < trips.size(); ++i) {
    const Trip& trip = trips[i];
    ODF_CHECK_GE(trip.origin, 0);
    ODF_CHECK_LT(trip.origin, num_regions);
    ODF_CHECK_GE(trip.destination, 0);
    ODF_CHECK_LT(trip.destination, num_regions);
    ODF_CHECK_GE(trip.departure_s, 0);
    const int64_t t = partition.IntervalOf(trip.departure_s);
    ODF_CHECK_LT(t, num_intervals);
    buckets[static_cast<size_t>(t)].push_back(static_cast<int64_t>(i));
  }

  // Trip section first, so the directory can carry per-interval CRCs.
  ByteWriter payload_writer;
  struct Entry {
    uint64_t offset;
    uint64_t count;
    uint32_t crc;
  };
  std::vector<Entry> directory;
  directory.reserve(static_cast<size_t>(num_intervals));
  for (const auto& bucket : buckets) {
    Entry entry;
    entry.offset = payload_writer.size();
    entry.count = bucket.size();
    for (int64_t i : bucket) {
      const Trip& trip = trips[static_cast<size_t>(i)];
      payload_writer.WriteU32(static_cast<uint32_t>(trip.origin));
      payload_writer.WriteU32(static_cast<uint32_t>(trip.destination));
      payload_writer.WriteI64(trip.departure_s);
      payload_writer.WriteDouble(trip.distance_m);
      payload_writer.WriteDouble(trip.duration_s);
    }
    entry.crc = Crc32(payload_writer.bytes().data() + entry.offset,
                      payload_writer.size() - entry.offset);
    directory.push_back(entry);
  }

  ByteWriter header_payload;
  header_payload.WriteU32(static_cast<uint32_t>(partition.interval_minutes()));
  header_payload.WriteU32(static_cast<uint32_t>(partition.num_days()));
  header_payload.WriteU64(static_cast<uint64_t>(num_intervals));
  header_payload.WriteU64(trips.size());
  header_payload.WriteI64(num_regions);
  for (const Entry& entry : directory) {
    header_payload.WriteU64(entry.offset);
    header_payload.WriteU64(entry.count);
    header_payload.WriteU32(entry.crc);
  }

  ByteWriter file;
  file.WriteU32(kMagic);
  file.WriteU32(kVersion);
  file.WriteU64(header_payload.size());
  const std::vector<uint8_t>& hp = header_payload.bytes();
  for (uint8_t byte : hp) file.WriteU8(byte);
  file.WriteU32(Crc32(hp.data(), hp.size()));
  for (uint8_t byte : payload_writer.bytes()) file.WriteU8(byte);

  return WriteFileAtomic(path, file.bytes().data(), file.size());
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

TripLogReader::~TripLogReader() { Close(); }

void TripLogReader::Close() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  heap_.clear();
  heap_.shrink_to_fit();
  directory_.clear();
  trip_base_ = 0;
  interval_minutes_ = 0;
  num_days_ = 0;
  num_intervals_ = 0;
  num_trips_ = 0;
  num_regions_ = 0;
}

TripLogStatus TripLogReader::Open(const std::string& path) {
  Close();

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return TripLogStatus::kIoError;
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return TripLogStatus::kIoError;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  const uint8_t* data = nullptr;
  bool mapped = false;
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      data = static_cast<const uint8_t*>(map);
      mapped = true;
    }
  }
  ::close(fd);
  if (!mapped) {
    // Chunked-read fallback (e.g. filesystems without mmap support). This
    // materializes the bytes, but only on the fallback path.
    if (!ReadFileBytes(path, &heap_)) return TripLogStatus::kIoError;
    if (heap_.size() != size) {
      heap_.clear();
      return TripLogStatus::kIoError;
    }
    data = heap_.data();
  }

  // Everything below validates before committing any member state.
  auto fail = [&](TripLogStatus status) {
    if (mapped) ::munmap(const_cast<uint8_t*>(data), size);
    heap_.clear();
    return status;
  };

  if (size < kPreludeBytes) {
    // Too short to even carry the magic + size prefix. An empty file is
    // indistinguishable from a truncated one; both are typed kTruncated
    // (unless the first bytes already disagree with the magic).
    if (size >= 4 && LoadLe<uint32_t>(data) != kMagic) {
      return fail(TripLogStatus::kBadMagic);
    }
    return fail(TripLogStatus::kTruncated);
  }
  if (LoadLe<uint32_t>(data) != kMagic) return fail(TripLogStatus::kBadMagic);
  if (LoadLe<uint32_t>(data + 4) != kVersion) {
    return fail(TripLogStatus::kBadVersion);
  }
  const uint64_t payload_size = LoadLe<uint64_t>(data + 8);
  // Overflow-safe: compare against what the file can actually hold before
  // deriving any offsets from the untrusted size.
  if (payload_size > size - kPreludeBytes ||
      size - kPreludeBytes - payload_size < 4) {
    return fail(TripLogStatus::kTruncated);
  }
  if (payload_size < kFixedPayloadBytes) return fail(TripLogStatus::kCorrupt);
  const uint8_t* payload = data + kPreludeBytes;
  const uint32_t stored_crc =
      LoadLe<uint32_t>(payload + payload_size);
  if (Crc32(payload, payload_size) != stored_crc) {
    return fail(TripLogStatus::kCorrupt);
  }

  ByteReader reader(payload, payload_size);
  const uint32_t interval_minutes = reader.ReadU32();
  const uint32_t num_days = reader.ReadU32();
  const uint64_t num_intervals = reader.ReadU64();
  const uint64_t num_trips = reader.ReadU64();
  const int64_t num_regions = reader.ReadI64();
  if (!reader.ok()) return fail(TripLogStatus::kCorrupt);
  if (interval_minutes == 0 || interval_minutes > 24 * 60 ||
      (24 * 60) % interval_minutes != 0 || num_days == 0 ||
      num_regions <= 0) {
    return fail(TripLogStatus::kCorrupt);
  }
  const uint64_t expected_intervals =
      (24ull * 60 / interval_minutes) * num_days;
  if (num_intervals != expected_intervals) {
    return fail(TripLogStatus::kCorrupt);
  }
  // The directory must account for exactly the remaining payload bytes —
  // a forged num_intervals cannot force an oversized allocation because the
  // CRC-validated payload already bounds it.
  if (num_intervals !=
      (payload_size - kFixedPayloadBytes) / kDirEntryBytes ||
      num_intervals * kDirEntryBytes != payload_size - kFixedPayloadBytes) {
    return fail(TripLogStatus::kCorrupt);
  }
  const uint64_t trip_base = kPreludeBytes + payload_size + 4;
  const uint64_t trip_bytes = size - trip_base;
  if (num_trips > trip_bytes / kRecordBytes) {
    return fail(TripLogStatus::kTruncated);
  }
  if (num_trips * kRecordBytes != trip_bytes) {
    // Trailing garbage after the last record.
    return fail(TripLogStatus::kCorrupt);
  }

  std::vector<DirEntry> directory;
  directory.reserve(static_cast<size_t>(num_intervals));
  uint64_t running = 0;  // running byte offset = Σ counts · record size
  for (uint64_t i = 0; i < num_intervals; ++i) {
    DirEntry entry;
    entry.offset = reader.ReadU64();
    entry.count = reader.ReadU64();
    entry.crc = reader.ReadU32();
    // Dense packing invariant: offsets are the running sum of counts, so
    // forged counts/offsets (overlap, gaps, out-of-bounds) all trip here.
    if (entry.offset != running || entry.count > num_trips) {
      return fail(TripLogStatus::kCorrupt);
    }
    running += entry.count * kRecordBytes;
    if (running > trip_bytes) return fail(TripLogStatus::kCorrupt);
    directory.push_back(entry);
  }
  if (!reader.ok() || reader.remaining() != 0 || running != trip_bytes) {
    return fail(TripLogStatus::kCorrupt);
  }

  data_ = data;
  size_ = size;
  mapped_ = mapped;
  trip_base_ = trip_base;
  directory_ = std::move(directory);
  interval_minutes_ = static_cast<int>(interval_minutes);
  num_days_ = static_cast<int>(num_days);
  num_intervals_ = static_cast<int64_t>(num_intervals);
  num_trips_ = static_cast<int64_t>(num_trips);
  num_regions_ = num_regions;
  return TripLogStatus::kOk;
}

TripLogStatus TripLogReader::ReadInterval(int64_t t,
                                          std::vector<Trip>* out) const {
  ODF_CHECK(is_open()) << "TripLogReader::ReadInterval before a successful "
                          "Open()";
  ODF_CHECK_GE(t, 0);
  ODF_CHECK_LT(t, num_intervals_);
  out->clear();
  const DirEntry& entry = directory_[static_cast<size_t>(t)];
  const uint8_t* base = data_ + trip_base_ + entry.offset;
  const size_t bytes = static_cast<size_t>(entry.count) *
                       static_cast<size_t>(kRecordBytes);
  if (Crc32(base, bytes) != entry.crc) return TripLogStatus::kCorrupt;

  const TimePartition partition(interval_minutes_, num_days_);
  std::vector<Trip> trips;
  trips.reserve(static_cast<size_t>(entry.count));
  for (uint64_t i = 0; i < entry.count; ++i) {
    const uint8_t* rec = base + i * kRecordBytes;
    Trip trip;
    trip.origin = static_cast<int32_t>(LoadLe<uint32_t>(rec));
    trip.destination = static_cast<int32_t>(LoadLe<uint32_t>(rec + 4));
    trip.departure_s = LoadLe<int64_t>(rec + 8);
    trip.distance_m = LoadLe<double>(rec + 16);
    trip.duration_s = LoadLe<double>(rec + 24);
    if (trip.origin < 0 || trip.origin >= num_regions_ ||
        trip.destination < 0 || trip.destination >= num_regions_) {
      return TripLogStatus::kBadRecord;
    }
    if (trip.departure_s < 0 ||
        trip.departure_s >=
            static_cast<int64_t>(num_intervals_) * interval_minutes_ * 60 ||
        partition.IntervalOf(trip.departure_s) != t) {
      // A CRC-valid record filed under the wrong interval means the
      // directory itself was forged consistently — still reject.
      return TripLogStatus::kBadRecord;
    }
    trips.push_back(trip);
  }
  *out = std::move(trips);
  return TripLogStatus::kOk;
}

TripLogStatus TripLogReader::VerifyPayload() const {
  std::vector<Trip> scratch;
  for (int64_t t = 0; t < num_intervals_; ++t) {
    const TripLogStatus status = ReadInterval(t, &scratch);
    if (status != TripLogStatus::kOk) return status;
  }
  return TripLogStatus::kOk;
}

void TripLogReader::IntervalTrips(int64_t t, std::vector<Trip>* out) const {
  const TripLogStatus status = ReadInterval(t, out);
  ODF_CHECK(status == TripLogStatus::kOk)
      << "trip log interval " << t << " unreadable after a successful "
      << "Open()+VerifyPayload(): " << TripLogStatusName(status);
}

}  // namespace odf
