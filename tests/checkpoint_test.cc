// Crash-safe checkpoint/resume tests.
//
// The contract under test (ISSUE 2): interrupting training at any epoch
// boundary and resuming from the checkpoint reproduces the uninterrupted
// run bit-identically — weights, Adam moments, RNG stream and loss curves —
// at every thread count; and no corrupted, truncated or hostile checkpoint
// file can abort the process or touch the destination model.

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/basic_framework.h"
#include "core/trainer.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "pool_guard.h"
#include "sim/trip_generator.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ---------------------------------------------------------------------
// Low-level pieces: CRC, byte reader/writer.
// ---------------------------------------------------------------------

// Bit-at-a-time CRC-32 over the reflected polynomial, independent of the
// library's tables.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size, uint32_t crc) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return ~c;
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Incremental == one-shot.
  const uint32_t first = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, first), 0xCBF43926u);
}

// The sliced CRC against the bitwise reference: every length 0–67 (below,
// at and past the 8-byte step, with every tail length) at every start
// offset 0–7 (every word alignment), and every such buffer split into two
// chained calls at every point.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthOffsetAndSplit) {
  std::vector<uint8_t> bytes(8 + 67);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 167 + 13);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 67; ++size) {
      SCOPED_TRACE(::testing::Message() << "offset " << offset << " size "
                                        << size);
      const uint8_t* data = bytes.data() + offset;
      const uint32_t want = BitwiseCrc32(data, size, 0);
      ASSERT_EQ(Crc32(data, size), want);
      ASSERT_EQ(Crc32(data, size, 0x12345678u),
                BitwiseCrc32(data, size, 0x12345678u));
      for (size_t split = 0; split <= size; ++split) {
        ASSERT_EQ(Crc32(data + split, size - split, Crc32(data, split)), want)
            << "split " << split;
      }
    }
  }
}

TEST(ByteIoTest, RoundTripAllTypes) {
  ByteWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEFu);
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteI64(-77);
  writer.WriteFloat(-0.0f);
  writer.WriteDouble(3.25);
  const float floats[] = {1.0f, 1e-42f, -2.5f};  // includes a denormal
  writer.WriteFloats(floats, 3);
  writer.WriteString("checkpoint");

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU8(), 0xAB);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.ReadI64(), -77);
  const float neg_zero = reader.ReadFloat();
  EXPECT_EQ(neg_zero, 0.0f);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(reader.ReadDouble(), 3.25);
  float back[3] = {0, 0, 0};
  reader.ReadFloats(back, 3);
  EXPECT_EQ(std::memcmp(back, floats, sizeof floats), 0);
  EXPECT_EQ(reader.ReadString(), "checkpoint");
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteIoTest, OverrunLatchesFailureInsteadOfAborting) {
  ByteWriter writer;
  writer.WriteU32(7);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU64(), 0u);  // 4 bytes short
  EXPECT_FALSE(reader.ok());
  // Every later read stays zero/failed; nothing crashes.
  EXPECT_EQ(reader.ReadU32(), 0u);
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteIoTest, HostileStringLengthRejected) {
  ByteWriter writer;
  writer.WriteU64(std::numeric_limits<uint64_t>::max());  // absurd length
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_FALSE(reader.ok());
}

// ---------------------------------------------------------------------
// Round trips of each serialized piece in isolation.
// ---------------------------------------------------------------------

TEST(RngStateTest, SaveLoadContinuesIdenticalStream) {
  Rng rng(123);
  for (int i = 0; i < 17; ++i) rng.NextU64();
  (void)rng.Gaussian();  // populate the Box–Muller cache
  const Rng::State state = rng.SaveState();

  std::vector<uint64_t> expected;
  const double expected_gaussian = rng.Gaussian();  // must come from cache
  for (int i = 0; i < 32; ++i) expected.push_back(rng.NextU64());

  Rng other(999);  // different seed: state must fully overwrite it
  other.LoadState(state);
  const double got_gaussian = other.Gaussian();
  EXPECT_EQ(std::memcmp(&got_gaussian, &expected_gaussian, sizeof(double)),
            0);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(other.NextU64(), expected[i]);
}

TEST(RngStateTest, RoundTripsThroughCheckpointFile) {
  const std::string path = FreshDir("rng_rt") + "/rng.odfckpt";
  Rng rng(7);
  for (int i = 0; i < 5; ++i) rng.Gaussian();  // mid-stream, cache hot

  nn::TrainingCheckpoint checkpoint;
  checkpoint.rng = rng.SaveState();
  ASSERT_TRUE(nn::SaveTrainingCheckpoint(checkpoint, path));

  nn::TrainingCheckpoint loaded;
  ASSERT_TRUE(nn::LoadTrainingCheckpoint(path, &loaded).ok());
  EXPECT_EQ(loaded.rng.s, checkpoint.rng.s);
  EXPECT_EQ(loaded.rng.has_cached_gaussian,
            checkpoint.rng.has_cached_gaussian);
  EXPECT_EQ(std::memcmp(&loaded.rng.cached_gaussian,
                        &checkpoint.rng.cached_gaussian, sizeof(double)),
            0);

  Rng resumed(0);
  resumed.LoadState(loaded.rng);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(resumed.NextU64(), rng.NextU64());
}

TEST(AdamStateTest, RoundTripsThroughCheckpointFile) {
  const std::string path = FreshDir("adam_rt") + "/adam.odfckpt";
  Rng rng(11);
  nn::Linear layer(3, 2, rng);
  nn::Adam adam(layer.Parameters(), 0.01f);
  Tensor x = Tensor::RandomNormal(Shape({4, 3}), rng);
  const auto step_once = [&](nn::Linear& l, nn::Adam& opt) {
    opt.ZeroGrad();
    ag::Var loss = ag::SumAll(ag::Square(l.Forward(ag::Var::Constant(x))));
    loss.Backward();
    opt.Step();
  };
  for (int i = 0; i < 3; ++i) step_once(layer, adam);

  nn::TrainingCheckpoint checkpoint;
  checkpoint.optimizer = adam.ExportState();
  for (const auto& p : layer.Parameters()) {
    checkpoint.parameters.push_back(p.value());
  }
  ASSERT_TRUE(nn::SaveTrainingCheckpoint(checkpoint, path));

  nn::TrainingCheckpoint loaded;
  ASSERT_TRUE(nn::LoadTrainingCheckpoint(path, &loaded).ok());
  EXPECT_EQ(loaded.optimizer.step, 3);
  ASSERT_EQ(loaded.optimizer.slots.size(), checkpoint.optimizer.slots.size());
  for (size_t i = 0; i < loaded.optimizer.slots.size(); ++i) {
    EXPECT_TRUE(BitEqual(loaded.optimizer.slots[i],
                         checkpoint.optimizer.slots[i]))
        << "slot " << i;
  }

  // A fresh layer + optimizer restored from the file continues identically.
  Rng rng2(11);
  nn::Linear layer2(3, 2, rng2);
  nn::Adam adam2(layer2.Parameters(), 0.01f);
  ASSERT_TRUE(nn::ApplyParameters(layer2, loaded.parameters).ok());
  ASSERT_TRUE(adam2.ImportState(loaded.optimizer));
  step_once(layer, adam);
  step_once(layer2, adam2);
  const auto p1 = layer.Parameters();
  const auto p2 = layer2.Parameters();
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_TRUE(BitEqual(p1[i].value(), p2[i].value())) << "param " << i;
  }
}

TEST(AdamStateTest, ImportRejectsMismatchedShapes) {
  Rng rng(12);
  nn::Linear layer(3, 2, rng);
  nn::Adam adam(layer.Parameters(), 0.01f);
  nn::OptimizerState state = adam.ExportState();
  state.slots.pop_back();
  EXPECT_FALSE(adam.ImportState(state));
  nn::OptimizerState wrong_shape = adam.ExportState();
  wrong_shape.slots[0] = Tensor(Shape({1}));
  EXPECT_FALSE(adam.ImportState(wrong_shape));
}

TEST(ScheduleStateTest, EpochPositionRoundTripsExactly) {
  const std::string path = FreshDir("sched_rt") + "/sched.odfckpt";
  nn::TrainingCheckpoint checkpoint;
  checkpoint.epoch = 12;
  checkpoint.best_epoch = 9;
  checkpoint.stale_epochs = 3;
  checkpoint.best_validation_loss = 0.4375f;  // exactly representable
  checkpoint.train_losses = {1.0f, 0.5f, 0.25f};
  checkpoint.validation_losses = {1.5f, 0.75f, 0.375f};
  ASSERT_TRUE(nn::SaveTrainingCheckpoint(checkpoint, path));

  nn::TrainingCheckpoint loaded;
  ASSERT_TRUE(nn::LoadTrainingCheckpoint(path, &loaded).ok());
  EXPECT_EQ(loaded.epoch, 12);
  EXPECT_EQ(loaded.best_epoch, 9);
  EXPECT_EQ(loaded.stale_epochs, 3);
  EXPECT_TRUE(BitEqual(loaded.train_losses, checkpoint.train_losses));
  EXPECT_TRUE(BitEqual(loaded.validation_losses,
                       checkpoint.validation_losses));
  const uint32_t a = std::bit_cast<uint32_t>(loaded.best_validation_loss);
  const uint32_t b = std::bit_cast<uint32_t>(checkpoint.best_validation_loss);
  EXPECT_EQ(a, b);
  // The schedule position is the epoch index: identical lr after resume.
  nn::StepDecaySchedule schedule(2e-3f, 0.8f, 5);
  EXPECT_EQ(schedule.LearningRate(static_cast<int>(loaded.epoch) + 1),
            schedule.LearningRate(13));
}

TEST(ParameterBitsTest, DenormalsAndSignedZerosSurviveExactly) {
  const std::string path = FreshDir("denorm_rt") + "/params.odfckpt";
  Tensor weird(Shape({8}),
               {-0.0f, +0.0f, 1e-42f /*denormal*/, -1e-45f /*min denormal*/,
                std::numeric_limits<float>::min(),
                std::numeric_limits<float>::max(),
                std::numeric_limits<float>::infinity(), -1.5f});
  nn::TrainingCheckpoint checkpoint;
  checkpoint.parameters = {weird};
  checkpoint.best_weights = {weird};
  ASSERT_TRUE(nn::SaveTrainingCheckpoint(checkpoint, path));
  nn::TrainingCheckpoint loaded;
  ASSERT_TRUE(nn::LoadTrainingCheckpoint(path, &loaded).ok());
  ASSERT_EQ(loaded.parameters.size(), 1u);
  EXPECT_TRUE(BitEqual(loaded.parameters[0], weird));
  EXPECT_TRUE(BitEqual(loaded.best_weights[0], weird));
}

// ---------------------------------------------------------------------
// Corruption robustness: hostile bytes must fail cleanly, never crash,
// never touch the destination model.
// ---------------------------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = FreshDir("corruption");
    path_ = dir_ + "/victim.odfckpt";
    Rng rng(21);
    model_ = std::make_unique<nn::Linear>(4, 3, rng);
    ASSERT_TRUE(nn::SaveParameters(*model_, path_));
    ASSERT_TRUE(ReadFileBytes(path_, &bytes_));
    ASSERT_GT(bytes_.size(), 30u);
  }

  void Rewrite(const std::vector<uint8_t>& bytes) {
    ASSERT_TRUE(WriteFileAtomic(path_, bytes.data(), bytes.size()));
  }

  /// Asserts the load fails with `expected` and the model is untouched.
  void ExpectCleanFailure(nn::LoadStatus expected) {
    const Tensor before = model_->Parameters()[0].value();
    const nn::LoadResult result = nn::LoadParametersChecked(*model_, path_);
    EXPECT_EQ(result.status, expected)
        << "got " << nn::LoadStatusName(result.status) << ": "
        << result.message;
    EXPECT_FALSE(result.message.empty());
    EXPECT_TRUE(BitEqual(model_->Parameters()[0].value(), before));
    EXPECT_FALSE(nn::LoadParameters(*model_, path_));  // bool path, no abort
  }

  std::string dir_;
  std::string path_;
  std::unique_ptr<nn::Linear> model_;
  std::vector<uint8_t> bytes_;
};

TEST_F(CorruptionTest, ZeroLengthFile) {
  Rewrite({});
  ExpectCleanFailure(nn::LoadStatus::kBadMagic);
}

TEST_F(CorruptionTest, TruncatedEverywhere) {
  // Cutting the file at any length must fail cleanly. Sample a spread of
  // truncation points including all short prefixes.
  for (size_t cut : {size_t{1}, size_t{7}, size_t{8}, size_t{12},
                     size_t{19}, size_t{20}, bytes_.size() / 2,
                     bytes_.size() - 1}) {
    std::vector<uint8_t> cut_bytes(bytes_.begin(),
                                   bytes_.begin() + static_cast<long>(cut));
    Rewrite(cut_bytes);
    const nn::LoadResult result = nn::LoadParametersChecked(*model_, path_);
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_NE(result.status, nn::LoadStatus::kArchMismatch)
        << "cut at " << cut << " reached shape checks";
  }
}

TEST_F(CorruptionTest, BitFlipAnywhereInPayloadIsCaughtByCrc) {
  for (size_t offset = 20; offset < bytes_.size() - 4;
       offset += std::max<size_t>(1, bytes_.size() / 13)) {
    std::vector<uint8_t> flipped = bytes_;
    flipped[offset] ^= 0x40;
    Rewrite(flipped);
    ExpectCleanFailure(nn::LoadStatus::kCorrupt);
  }
}

TEST_F(CorruptionTest, BadMagic) {
  std::vector<uint8_t> flipped = bytes_;
  flipped[0] ^= 0xFF;
  Rewrite(flipped);
  ExpectCleanFailure(nn::LoadStatus::kBadMagic);
}

TEST_F(CorruptionTest, UnsupportedVersion) {
  std::vector<uint8_t> flipped = bytes_;
  flipped[8] = 0x7F;  // version field follows the 8-byte magic
  Rewrite(flipped);
  ExpectCleanFailure(nn::LoadStatus::kBadVersion);
}

TEST_F(CorruptionTest, HostileTensorCountWithValidCrcIsRejected) {
  // Forge a payload whose CRC is valid but whose tensor count is absurd:
  // the sanity caps must reject it without attempting the allocation.
  std::vector<uint8_t> forged = bytes_;
  constexpr size_t kHeaderSize = 20;
  for (size_t i = 0; i < 8; ++i) forged[kHeaderSize + i] = 0xFF;
  const size_t payload_size = forged.size() - kHeaderSize - 4;
  const uint32_t crc = Crc32(forged.data() + kHeaderSize, payload_size);
  std::memcpy(forged.data() + forged.size() - 4, &crc, 4);
  Rewrite(forged);
  ExpectCleanFailure(nn::LoadStatus::kCorrupt);
}

TEST_F(CorruptionTest, TrainingCheckpointLoaderIsEquallyRobust) {
  // The same container hardening applies to full training checkpoints.
  nn::TrainingCheckpoint checkpoint;
  checkpoint.epoch = 2;
  checkpoint.parameters = {Tensor::Ones(Shape({3, 3}))};
  const std::string train_path = dir_ + "/train.odfckpt";
  ASSERT_TRUE(nn::SaveTrainingCheckpoint(checkpoint, train_path));
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(train_path, &bytes));

  nn::TrainingCheckpoint out;
  // Truncate.
  ASSERT_TRUE(WriteFileAtomic(train_path, bytes.data(), bytes.size() / 2));
  EXPECT_FALSE(nn::LoadTrainingCheckpoint(train_path, &out).ok());
  // Bit flip.
  std::vector<uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  ASSERT_TRUE(WriteFileAtomic(train_path, flipped.data(), flipped.size()));
  EXPECT_FALSE(nn::LoadTrainingCheckpoint(train_path, &out).ok());
  // Zero length.
  ASSERT_TRUE(WriteFileAtomic(train_path, nullptr, 0));
  EXPECT_FALSE(nn::LoadTrainingCheckpoint(train_path, &out).ok());
  // Missing.
  EXPECT_EQ(nn::LoadTrainingCheckpoint(dir_ + "/missing.odfckpt", &out)
                .status,
            nn::LoadStatus::kIoError);
}

// ---------------------------------------------------------------------
// End-to-end: interrupt-and-resume is bit-identical to a straight run.
// ---------------------------------------------------------------------

struct TestWorld {
  DatasetSpec spec;
  OdTensorSeries series;
  ForecastDataset dataset;
  ForecastDataset::Split split;

  static TestWorld Make() {
    DatasetSpec spec = MakeNycLike(3, 3, /*num_days=*/3,
                                   /*interval_minutes=*/60);
    spec.config.mean_trips_per_interval = 100;
    TripGenerator gen(spec.graph, spec.config);
    OdTensorSeries series = BuildOdTensorSeries(
        gen.Generate(),
        TimePartition(spec.config.interval_minutes, spec.config.num_days),
        spec.graph.size(), spec.graph.size(), SpeedHistogramSpec::Paper());
    return TestWorld(std::move(spec), std::move(series));
  }

  TestWorld(DatasetSpec s, OdTensorSeries ser)
      : spec(std::move(s)),
        series(std::move(ser)),
        dataset(&series, /*history=*/3, /*horizon=*/1),
        split(dataset.ChronologicalSplit(0.7, 0.1)) {}
};

BasicFramework MakeModel() {
  BasicFrameworkConfig config;
  config.rank = 3;
  config.encode_dim = 8;
  config.gru_hidden = 8;
  return BasicFramework(9, 9, 7, /*horizon=*/1, config);
}

TrainConfig MakeTrainConfig(const std::string& dir, int epochs) {
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 8;
  config.learning_rate = 5e-3f;
  config.lr_decay_every_epochs = 3;  // exercise a decay boundary in 8 epochs
  config.patience = 20;
  config.checkpoint_dir = dir;
  config.checkpoint_every_epochs = 1;
  config.checkpoint_keep = 20;
  return config;
}

class ResumeDeterminismTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { ThreadPool::Global().Resize(GetParam()); }

  PoolGuard guard_;  // restores the pool size the test found
};

TEST_P(ResumeDeterminismTest, InterruptedRunIsBitIdenticalToStraightRun) {
  TestWorld world = TestWorld::Make();
  const std::string dir_straight = FreshDir("resume_straight");
  const std::string dir_resumed = FreshDir("resume_interrupted");

  // Straight run: 8 epochs, never interrupted.
  BasicFramework straight = MakeModel();
  const TrainResult result_straight = TrainForecaster(
      straight, world.dataset, world.split,
      MakeTrainConfig(dir_straight, 8));

  // Interrupted run: 4 epochs ("crash"), then a fresh model + resume.
  {
    BasicFramework phase1 = MakeModel();
    TrainForecaster(phase1, world.dataset, world.split,
                    MakeTrainConfig(dir_resumed, 4));
  }
  // The epoch-3 snapshots of both runs must already be byte-identical
  // files: same state, same serialization.
  std::vector<uint8_t> snap_straight;
  std::vector<uint8_t> snap_resumed;
  ASSERT_TRUE(
      ReadFileBytes(dir_straight + "/ckpt-00000003.odfckpt", &snap_straight));
  ASSERT_TRUE(
      ReadFileBytes(dir_resumed + "/ckpt-00000003.odfckpt", &snap_resumed));
  EXPECT_EQ(snap_straight, snap_resumed);

  BasicFramework resumed = MakeModel();
  TrainConfig resume_config = MakeTrainConfig(dir_resumed, 8);
  resume_config.resume = true;
  const TrainResult result_resumed = TrainForecaster(
      resumed, world.dataset, world.split, resume_config);

  // Loss curves byte-identical.
  EXPECT_TRUE(BitEqual(result_straight.train_losses,
                       result_resumed.train_losses));
  EXPECT_TRUE(BitEqual(result_straight.validation_losses,
                       result_resumed.validation_losses));
  EXPECT_EQ(result_straight.best_epoch, result_resumed.best_epoch);
  EXPECT_EQ(result_straight.epochs_run, result_resumed.epochs_run);

  // Final (best-restored) weights byte-identical.
  const auto params_straight = straight.Parameters();
  const auto params_resumed = resumed.Parameters();
  ASSERT_EQ(params_straight.size(), params_resumed.size());
  for (size_t i = 0; i < params_straight.size(); ++i) {
    EXPECT_TRUE(BitEqual(params_straight[i].value(),
                         params_resumed[i].value()))
        << "param " << i;
  }

  // The final checkpoint files — covering Adam moments, RNG stream and
  // early-stopping bookkeeping — are byte-identical too.
  std::vector<uint8_t> final_straight;
  std::vector<uint8_t> final_resumed;
  ASSERT_TRUE(ReadFileBytes(dir_straight + "/ckpt-00000007.odfckpt",
                            &final_straight));
  ASSERT_TRUE(ReadFileBytes(dir_resumed + "/ckpt-00000007.odfckpt",
                            &final_resumed));
  EXPECT_EQ(final_straight, final_resumed);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ResumeDeterminismTest,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(ResumeTest, SkipsCorruptLatestAndFallsBackToOlderSnapshot) {
  TestWorld world = TestWorld::Make();
  const std::string dir = FreshDir("resume_fallback");
  {
    BasicFramework model = MakeModel();
    TrainForecaster(model, world.dataset, world.split,
                    MakeTrainConfig(dir, 3));
  }
  // Corrupt the newest snapshot; the epoch-1 snapshot stays valid.
  const std::string newest = dir + "/ckpt-00000002.odfckpt";
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(newest, &bytes));
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(newest, bytes.data(), bytes.size()));

  BasicFramework resumed = MakeModel();
  TrainConfig config = MakeTrainConfig(dir, 5);
  config.resume = true;
  const TrainResult result = TrainForecaster(resumed, world.dataset,
                                             world.split, config);
  // Resumed from epoch 1 (not 2), so epochs 2..4 were re-run.
  EXPECT_EQ(result.epochs_run, 5);
  ASSERT_EQ(result.train_losses.size(), 5u);
}

// A CRC-valid snapshot with one section that does not fit the model must be
// skipped whole: nothing of it may reach the model or the optimizer, so
// the resumed run equals an empty-directory run byte for byte.
struct RejectedSection {
  const char* name;
  void (*spoil)(nn::TrainingCheckpoint& checkpoint);
};

void PrintTo(const RejectedSection& section, std::ostream* os) {
  *os << section.name;
}

class RejectedCheckpointTest
    : public ::testing::TestWithParam<RejectedSection> {};

TEST_P(RejectedCheckpointTest, ResumeEqualsAnEmptyDirectoryRun) {
  TestWorld world = TestWorld::Make();
  const std::string reference_dir =
      FreshDir(std::string("rejected_reference_") + GetParam().name);
  BasicFramework reference = MakeModel();
  const TrainResult expected = TrainForecaster(
      reference, world.dataset, world.split, MakeTrainConfig(reference_dir, 2));

  // The reference run's last snapshot, spoiled in one section, is the only
  // one the resumed run finds. It sits at the last epoch, so a resume that
  // accepted it would train no further.
  nn::TrainingCheckpoint checkpoint;
  ASSERT_TRUE(nn::LoadTrainingCheckpoint(
                  reference_dir + "/ckpt-00000001.odfckpt", &checkpoint)
                  .ok());
  ASSERT_FALSE(checkpoint.best_weights.empty());
  GetParam().spoil(checkpoint);
  const std::string dir =
      FreshDir(std::string("rejected_") + GetParam().name);
  ASSERT_TRUE(
      nn::SaveTrainingCheckpoint(checkpoint, dir + "/ckpt-00000001.odfckpt"));

  BasicFramework resumed = MakeModel();
  TrainConfig config = MakeTrainConfig(dir, 2);
  config.resume = true;
  const TrainResult result =
      TrainForecaster(resumed, world.dataset, world.split, config);

  EXPECT_TRUE(BitEqual(expected.train_losses, result.train_losses));
  EXPECT_TRUE(
      BitEqual(expected.validation_losses, result.validation_losses));
  EXPECT_EQ(expected.best_epoch, result.best_epoch);
  EXPECT_EQ(expected.epochs_run, result.epochs_run);
  const auto params_expected = reference.Parameters();
  const auto params_resumed = resumed.Parameters();
  ASSERT_EQ(params_expected.size(), params_resumed.size());
  for (size_t i = 0; i < params_expected.size(); ++i) {
    EXPECT_TRUE(
        BitEqual(params_expected[i].value(), params_resumed[i].value()))
        << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sections, RejectedCheckpointTest,
    ::testing::Values(
        RejectedSection{"optimizer_slot_shape",
                        [](nn::TrainingCheckpoint& checkpoint) {
                          checkpoint.optimizer.slots[0] =
                              Tensor(Shape({1, 1, 1}));
                        }},
        RejectedSection{"extra_best_weight",
                        [](nn::TrainingCheckpoint& checkpoint) {
                          checkpoint.best_weights.push_back(
                              checkpoint.best_weights.back());
                        }},
        RejectedSection{"best_weight_shape",
                        [](nn::TrainingCheckpoint& checkpoint) {
                          checkpoint.best_weights[0] =
                              Tensor(Shape({1, 1, 1}));
                        }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ResumeTest, EmptyDirTrainsFromScratch) {
  TestWorld world = TestWorld::Make();
  const std::string dir = FreshDir("resume_empty");
  BasicFramework model = MakeModel();
  TrainConfig config = MakeTrainConfig(dir, 2);
  config.resume = true;  // nothing to resume from
  const TrainResult result =
      TrainForecaster(model, world.dataset, world.split, config);
  EXPECT_EQ(result.epochs_run, 2);
}

TEST(ResumeTest, RollingSnapshotsAreBounded) {
  TestWorld world = TestWorld::Make();
  const std::string dir = FreshDir("rolling");
  BasicFramework model = MakeModel();
  TrainConfig config = MakeTrainConfig(dir, 6);
  config.checkpoint_keep = 2;
  TrainForecaster(model, world.dataset, world.split, config);
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    // Only snapshots are bounded; training may also drop telemetry.jsonl
    // here when ODF_METRICS is on.
    if (entry.path().extension() == ".odfckpt") ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(ResumeTest, ResumeAfterEarlyStopDoesNotTrainFurther) {
  TestWorld world = TestWorld::Make();
  const std::string dir = FreshDir("resume_early_stop");
  TrainConfig config = MakeTrainConfig(dir, 30);
  config.patience = 0;
  config.learning_rate = 0.5f;  // absurd LR: validation degrades quickly
  int stopped_epochs = 0;
  {
    BasicFramework model = MakeModel();
    const TrainResult result =
        TrainForecaster(model, world.dataset, world.split, config);
    ASSERT_LT(result.epochs_run, 30);
    stopped_epochs = result.epochs_run;
  }
  BasicFramework resumed = MakeModel();
  config.resume = true;
  const TrainResult result =
      TrainForecaster(resumed, world.dataset, world.split, config);
  EXPECT_EQ(result.epochs_run, stopped_epochs);
}

}  // namespace
}  // namespace odf
