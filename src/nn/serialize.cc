#include "nn/serialize.h"

#include <cstring>
#include <sstream>

#include "util/binary_io.h"
#include "util/logging.h"

namespace odf::nn {

namespace {

// On-disk container (docs/checkpoint_format.md):
//   magic[8] | version u32 | payload_size u64 | payload | crc32(payload) u32
// The CRC covers exactly the payload bytes, so any truncation, bit flip or
// length corruption is caught before a single field is interpreted.
constexpr char kParamMagic[] = "ODFPARAM";
constexpr char kTrainMagic[] = "ODFCKPT1";
constexpr size_t kMagicSize = 8;
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderSize = kMagicSize + sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kFooterSize = sizeof(uint32_t);

// Sanity caps applied before trusting any count read from a file.
constexpr uint64_t kMaxTensors = 1u << 20;
constexpr uint64_t kMaxRank = 16;

// Section tags of the training-checkpoint payload (little-endian fourcc).
constexpr uint32_t Tag(const char (&name)[5]) {
  return static_cast<uint32_t>(name[0]) |
         static_cast<uint32_t>(name[1]) << 8 |
         static_cast<uint32_t>(name[2]) << 16 |
         static_cast<uint32_t>(name[3]) << 24;
}
constexpr uint32_t kTagLoop = Tag("LOOP");
constexpr uint32_t kTagParams = Tag("PARM");
constexpr uint32_t kTagBest = Tag("BEST");
constexpr uint32_t kTagOptimizer = Tag("OPTM");
constexpr uint32_t kTagRng = Tag("RNGS");

LoadResult Fail(LoadStatus status, const std::string& message) {
  return LoadResult{status, message};
}

void WriteTensor(ByteWriter& writer, const Tensor& tensor) {
  writer.WriteU64(static_cast<uint64_t>(tensor.rank()));
  for (int64_t d = 0; d < tensor.rank(); ++d) writer.WriteI64(tensor.dim(d));
  writer.WriteFloats(tensor.data(), static_cast<size_t>(tensor.numel()));
}

void WriteTensorList(ByteWriter& writer, const std::vector<Tensor>& tensors) {
  writer.WriteU64(tensors.size());
  for (const Tensor& t : tensors) WriteTensor(writer, t);
}

/// Parses one tensor with every count validated against the bytes actually
/// present, so corrupted sizes can neither abort (Shape rejects negatives
/// via ODF_CHECK) nor force absurd allocations.
bool ReadTensor(ByteReader& reader, Tensor* out) {
  const uint64_t rank = reader.ReadU64();
  if (!reader.ok() || rank > kMaxRank) return false;
  // The element data must fit in the bytes actually present; checking the
  // product incrementally (division form) also rules out overflow games.
  const uint64_t max_numel = reader.remaining() / sizeof(float);
  std::vector<int64_t> dims;
  dims.reserve(static_cast<size_t>(rank));
  uint64_t numel = 1;
  for (uint64_t d = 0; d < rank; ++d) {
    const int64_t dim = reader.ReadI64();
    if (!reader.ok() || dim < 0) return false;
    if (dim > 0 && numel > max_numel / static_cast<uint64_t>(dim)) {
      return false;
    }
    numel *= static_cast<uint64_t>(dim);
    dims.push_back(dim);
  }
  if (numel > max_numel) return false;
  Tensor tensor{Shape(std::move(dims))};
  reader.ReadFloats(tensor.data(), static_cast<size_t>(tensor.numel()));
  if (!reader.ok()) return false;
  *out = std::move(tensor);
  return true;
}

bool ReadTensorList(ByteReader& reader, std::vector<Tensor>* out) {
  out->clear();
  const uint64_t count = reader.ReadU64();
  if (!reader.ok() || count > kMaxTensors) return false;
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Tensor tensor;
    if (!ReadTensor(reader, &tensor)) return false;
    out->push_back(std::move(tensor));
  }
  return true;
}

void WriteFloatList(ByteWriter& writer, const std::vector<float>& values) {
  writer.WriteU64(values.size());
  writer.WriteFloats(values.data(), values.size());
}

bool ReadFloatList(ByteReader& reader, std::vector<float>* out) {
  out->clear();
  const uint64_t count = reader.ReadU64();
  if (!reader.ok() || count > reader.remaining() / sizeof(float)) return false;
  out->resize(static_cast<size_t>(count));
  reader.ReadFloats(out->data(), out->size());
  return reader.ok();
}

bool WriteContainer(const std::string& path, const char* magic,
                    const ByteWriter& payload) {
  ByteWriter file;
  for (size_t i = 0; i < kMagicSize; ++i) {
    file.WriteU8(static_cast<uint8_t>(magic[i]));
  }
  file.WriteU32(kFormatVersion);
  file.WriteU64(payload.size());
  for (uint8_t b : payload.bytes()) file.WriteU8(b);
  file.WriteU32(Crc32(payload.bytes().data(), payload.size()));
  return WriteFileAtomic(path, file.bytes().data(), file.size());
}

/// Opens and validates the container: magic, version, payload length, CRC.
/// On success `*payload` holds the verified payload bytes.
LoadResult ReadContainer(const std::string& path, const char* magic,
                         std::vector<uint8_t>* payload) {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) {
    return Fail(LoadStatus::kIoError, "cannot read " + path);
  }
  if (bytes.size() < kHeaderSize + kFooterSize) {
    return Fail(LoadStatus::kBadMagic,
                path + ": too short to be a checkpoint");
  }
  if (std::memcmp(bytes.data(), magic, kMagicSize) != 0) {
    return Fail(LoadStatus::kBadMagic, path + ": bad magic");
  }
  ByteReader header(bytes.data() + kMagicSize, kHeaderSize - kMagicSize);
  const uint32_t version = header.ReadU32();
  if (version != kFormatVersion) {
    std::ostringstream message;
    message << path << ": unsupported format version " << version;
    return Fail(LoadStatus::kBadVersion, message.str());
  }
  const uint64_t payload_size = header.ReadU64();
  if (payload_size != bytes.size() - kHeaderSize - kFooterSize) {
    return Fail(LoadStatus::kCorrupt,
                path + ": payload size does not match file size");
  }
  const uint8_t* payload_begin = bytes.data() + kHeaderSize;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, payload_begin + payload_size, sizeof stored_crc);
  const uint32_t actual_crc =
      Crc32(payload_begin, static_cast<size_t>(payload_size));
  if (stored_crc != actual_crc) {
    return Fail(LoadStatus::kCorrupt, path + ": CRC mismatch");
  }
  payload->assign(payload_begin, payload_begin + payload_size);
  return {};
}

}  // namespace

const char* LoadStatusName(LoadStatus status) {
  switch (status) {
    case LoadStatus::kOk:
      return "ok";
    case LoadStatus::kIoError:
      return "io-error";
    case LoadStatus::kBadMagic:
      return "bad-magic";
    case LoadStatus::kBadVersion:
      return "bad-version";
    case LoadStatus::kCorrupt:
      return "corrupt";
    case LoadStatus::kArchMismatch:
      return "arch-mismatch";
  }
  return "unknown";
}

bool SaveParameters(const Module& module, const std::string& path) {
  ByteWriter payload;
  std::vector<Tensor> tensors;
  for (const auto& p : module.Parameters()) tensors.push_back(p.value());
  WriteTensorList(payload, tensors);
  return WriteContainer(path, kParamMagic, payload);
}

LoadResult CheckParameters(const Module& module,
                           const std::vector<Tensor>& tensors) {
  const auto params = module.Parameters();
  if (tensors.size() != params.size()) {
    std::ostringstream message;
    message << "parameter count mismatch: checkpoint has " << tensors.size()
            << ", model has " << params.size();
    return Fail(LoadStatus::kArchMismatch, message.str());
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (tensors[i].shape() != params[i].value().shape()) {
      std::ostringstream message;
      message << "parameter " << i << " shape mismatch: checkpoint "
              << tensors[i].shape().ToString() << " vs model "
              << params[i].value().shape().ToString();
      return Fail(LoadStatus::kArchMismatch, message.str());
    }
  }
  return {};
}

LoadResult ApplyParameters(Module& module,
                           const std::vector<Tensor>& tensors) {
  LoadResult result = CheckParameters(module, tensors);
  if (!result.ok()) return result;
  // All shapes verified — only now touch the model.
  auto params = module.Parameters();
  for (size_t i = 0; i < params.size(); ++i) params[i].SetValue(tensors[i]);
  return result;
}

LoadResult LoadParametersChecked(Module& module, const std::string& path) {
  std::vector<uint8_t> payload;
  LoadResult result = ReadContainer(path, kParamMagic, &payload);
  if (!result.ok()) return result;
  ByteReader reader(payload);
  std::vector<Tensor> tensors;
  if (!ReadTensorList(reader, &tensors) || reader.remaining() != 0) {
    return Fail(LoadStatus::kCorrupt, path + ": malformed parameter list");
  }
  return ApplyParameters(module, tensors);
}

bool LoadParameters(Module& module, const std::string& path) {
  const LoadResult result = LoadParametersChecked(module, path);
  if (!result.ok()) {
    ODF_LOG(Warning) << "LoadParameters(" << path
                     << ") failed: " << LoadStatusName(result.status) << " — "
                     << result.message;
  }
  return result.ok();
}

bool SaveTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                            const std::string& path) {
  ByteWriter payload;

  payload.WriteU32(kTagLoop);
  payload.WriteI64(checkpoint.epoch);
  WriteFloatList(payload, checkpoint.train_losses);
  WriteFloatList(payload, checkpoint.validation_losses);
  payload.WriteFloat(checkpoint.best_validation_loss);
  payload.WriteI64(checkpoint.best_epoch);
  payload.WriteI64(checkpoint.stale_epochs);

  payload.WriteU32(kTagParams);
  WriteTensorList(payload, checkpoint.parameters);

  payload.WriteU32(kTagBest);
  WriteTensorList(payload, checkpoint.best_weights);

  payload.WriteU32(kTagOptimizer);
  payload.WriteI64(checkpoint.optimizer.step);
  WriteTensorList(payload, checkpoint.optimizer.slots);

  payload.WriteU32(kTagRng);
  for (uint64_t word : checkpoint.rng.s) payload.WriteU64(word);
  payload.WriteU8(checkpoint.rng.has_cached_gaussian ? 1 : 0);
  payload.WriteDouble(checkpoint.rng.cached_gaussian);

  return WriteContainer(path, kTrainMagic, payload);
}

LoadResult LoadTrainingCheckpoint(const std::string& path,
                                  TrainingCheckpoint* out) {
  std::vector<uint8_t> payload;
  LoadResult result = ReadContainer(path, kTrainMagic, &payload);
  if (!result.ok()) return result;
  ByteReader reader(payload);
  const auto section = [&](uint32_t tag, const char* name) {
    if (reader.ReadU32() != tag || !reader.ok()) {
      return Fail(LoadStatus::kCorrupt,
                  path + ": missing section " + name);
    }
    return LoadResult{};
  };

  TrainingCheckpoint checkpoint;
  result = section(kTagLoop, "LOOP");
  if (!result.ok()) return result;
  checkpoint.epoch = reader.ReadI64();
  if (!ReadFloatList(reader, &checkpoint.train_losses) ||
      !ReadFloatList(reader, &checkpoint.validation_losses)) {
    return Fail(LoadStatus::kCorrupt, path + ": malformed loss curves");
  }
  checkpoint.best_validation_loss = reader.ReadFloat();
  checkpoint.best_epoch = reader.ReadI64();
  checkpoint.stale_epochs = reader.ReadI64();

  result = section(kTagParams, "PARM");
  if (!result.ok()) return result;
  if (!ReadTensorList(reader, &checkpoint.parameters)) {
    return Fail(LoadStatus::kCorrupt, path + ": malformed parameters");
  }

  result = section(kTagBest, "BEST");
  if (!result.ok()) return result;
  if (!ReadTensorList(reader, &checkpoint.best_weights)) {
    return Fail(LoadStatus::kCorrupt, path + ": malformed best weights");
  }

  result = section(kTagOptimizer, "OPTM");
  if (!result.ok()) return result;
  checkpoint.optimizer.step = reader.ReadI64();
  if (!ReadTensorList(reader, &checkpoint.optimizer.slots)) {
    return Fail(LoadStatus::kCorrupt, path + ": malformed optimizer state");
  }

  result = section(kTagRng, "RNGS");
  if (!result.ok()) return result;
  for (uint64_t& word : checkpoint.rng.s) word = reader.ReadU64();
  checkpoint.rng.has_cached_gaussian = reader.ReadU8() != 0;
  checkpoint.rng.cached_gaussian = reader.ReadDouble();

  if (!reader.ok() || reader.remaining() != 0) {
    return Fail(LoadStatus::kCorrupt, path + ": trailing or missing bytes");
  }
  *out = std::move(checkpoint);
  return {};
}

}  // namespace odf::nn
