#ifndef ODF_SERVE_FORWARD_PLAN_H_
#define ODF_SERVE_FORWARD_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "autograd/var.h"
#include "core/neural_forecaster.h"
#include "tensor/csr.h"
#include "tensor/tensor.h"
#include "util/metrics.h"

namespace odf::autograd {
struct CapturedOp;
struct Recording;
}  // namespace odf::autograd

namespace odf::serve {

/// Tape-free compiled inference (docs/serving.md).
///
/// `PlanCompiler::Compile` reads the model's inference forward from the
/// model itself, as two stages split at the factorization: it runs BF's or
/// AF's `FactorizeInterval` on one interval, and `ForecastFromFactors` on
/// one window of factors, each under an autograd Capture
/// (autograd/capture.h), which records every op with its parents, output
/// shape and attributes while skipping every kernel whose inputs depend on
/// the batch. A table keyed by op name lowers each recorded op to one
/// `Instr`, and a liveness pass packs each stage's values into a small
/// arena of reusable buffers. The plan then replays those schedules with
/// zero autograd involvement: no `Var`/`Node` allocation, no `shared_ptr`
/// churn, no per-op output tensors.
///
///  - stage F (`Factorize`): B′ intervals [B′, N, N′, K] to their R and C
///    factors, one row per interval;
///  - stage G (`Forecast`): one window's factors, 2·history tensors, to the
///    `horizon` predicted tensors, recovery included;
///  - `Run`: the whole forward on a batch of windows, F on each input
///    interval, then G.
///
/// Each stage's arena is allocated at the largest batch it has run and
/// viewed as a prefix for smaller ones, so a Run at a batch no larger than
/// one seen before allocates no buffer.
///
/// Bit-identity: every instruction calls the same `odf::` kernel the
/// recorded op calls on the tape — one kernel per op, with no serving-only
/// variant, so the plan's arithmetic is the tape's by construction. `Run`
/// therefore reproduces `Predict` bit-for-bit at any thread count
/// (tests/serving_test.cc asserts this for every model configuration), and
/// so does G over factors F computed in any batch, since no kernel's row
/// depends on the batch it runs in.
///
/// Ops over parameters and constants only run during capture, so their
/// results (the adaptive adjacency, for one) are plan constants. The plan
/// snapshots those values at compile time — post-compile weight loads
/// require recompiling — and shares ownership of the graph operators and
/// pooling cluster tables it reads, so it stays valid after the model is
/// destroyed. Compile after `nn::LoadParametersChecked`, not before.
///
/// No method is reentrant — callers serialize (the serving front-end
/// funnels every batch through one worker thread).

/// Buffer/output shape parameterized on the runtime batch size B:
/// dims = {mult · B, tail...}. Every batch-dependent value of the forward
/// has B as a factor of its leading dimension; Compile checks this by
/// capturing at batch 1 and batch 2.
struct BufShape {
  int64_t mult = 1;
  std::vector<int64_t> tail;

  std::vector<int64_t> Dims(int64_t batch) const {
    std::vector<int64_t> dims;
    dims.reserve(tail.size() + 1);
    dims.push_back(mult * batch);
    dims.insert(dims.end(), tail.begin(), tail.end());
    return dims;
  }
  int64_t NumelPerBatch() const {
    int64_t n = mult;
    for (int64_t d : tail) n *= d;
    return n;
  }
  bool operator==(const BufShape& other) const {
    return mult == other.mult && tail == other.tail;
  }
};

/// Instruction kinds; each is the lowering of one recorded op (the table in
/// forward_plan.cc), except kReshape, which re-views a shared buffer. The
/// elementwise kinds kAdd..kRelu stay contiguous: they may run in place.
enum class OpKind : uint8_t {
  kLoadInput,     // out = inputs[input_index] (BatchInput)
  kReshape,       // re-view buffer `out` as shape (no data movement)
  kZero,          // out = 0 (BatchZeros)
  kAdd,           // out = a + b (broadcast)
  kSub,           // out = a − b (broadcast)
  kMul,           // out = a ⊙ b (broadcast)
  kAddScalar,     // out = a + scalar
  kMulScalar,     // out = a · scalar
  kSigmoid,       // out = σ(a)
  kTanh,          // out = tanh(a)
  kRelu,          // out = relu(a)
  kMatMul,        // out = a · b (rank 2)
  kBatchMatMul,   // out = a ·batched b (rank-2 broadcast on either side)
  kConcat,        // out = Concat(srcs, axis)
  kSlice,         // out = a[..., start:start+len, ...] along axis
  kSum,           // out = Sum(a, axis, keepdim)
  kSoftmax,       // out = softmax over last axis of a
  kPermute,       // out = Permute(a, perm)
  kChebBasis,     // out = ChebyshevBasis(graph, a, order)
  kGraphApply,    // out = graph · a (SpMM)
  kGraphPool,     // out = GraphPool(a, *clusters, pool)
  kRecover,       // out = FusedRecover(a, b, scalar); stays last
};
inline constexpr int kNumOpKinds = static_cast<int>(OpKind::kRecover) + 1;

/// The kind's snake-case name ("cheb_basis" for kChebBasis, …): with
/// metrics on, `ForwardPlan::Run` times each kind as
/// serve.plan.op.<name>_seconds.
const char* OpKindName(OpKind kind);

/// One schedule step. `a`/`b`/`out`/`srcs` index the plan's buffers: arena
/// buffers first, then the plan's constants (parameter snapshots and folded
/// values). `attrs` are the recorded op's attributes (kRecover keeps its
/// temperature in `scalar`). Unused fields stay at their defaults. `shape`
/// is the output buffer's view for this instruction and is applied (as a
/// free re-view; numel never changes) before the kernel runs. `view` is
/// `shape` at the stage's current batch, kept so a re-view copies dims into
/// the buffer's shape instead of building one.
struct Instr {
  OpKind kind = OpKind::kZero;
  int32_t a = -1;
  int32_t b = -1;
  int32_t out = -1;
  int32_t input_index = -1;
  BufShape shape;
  Shape view;
  std::vector<int32_t> srcs;  // kConcat parts
  autograd::OpAttrs attrs;
};

class ForwardPlan {
 public:
  ForwardPlan() = default;
  ForwardPlan(ForwardPlan&&) = default;
  ForwardPlan& operator=(ForwardPlan&&) = default;

  /// Executes the forward on `inputs` (the model's `Batch::inputs`:
  /// `history()` tensors, each [B, N, N', K]): stage F on each input, then
  /// stage G. With metrics on, one Run records its total
  /// (serve.plan.run_seconds), each phase label's total and each OpKind's
  /// total over the instructions it ran (serve.plan.op.<kind>_seconds);
  /// Factorize and Forecast each record the same for their stage. With
  /// metrics off no method reads a clock.
  void Run(const std::vector<Tensor>& inputs);

  /// Stage F on `intervals` [B′, N, N', K]: factors(0) and factors(1) then
  /// hold the R and C factors of each interval, row i interval i's.
  void Factorize(const Tensor& intervals);

  /// Side `side` (0 = R, 1 = C) of the last stage-F run, shaped
  /// factor_shape(side) at its batch. Valid until the next Factorize or Run.
  const Tensor& factors(int side) const {
    return factorize_.Output(static_cast<size_t>(side));
  }
  /// One side's factor shape; a row of it is one interval's factors.
  const BufShape& factor_shape(int side) const {
    return factor_shapes_[static_cast<size_t>(side)];
  }

  /// Stage G on one window of factors per sample: `factors` holds the R
  /// sides of the window's `history()` intervals, oldest first, then their
  /// C sides, each factor_shape(side) at batch B.
  void Forecast(const std::vector<Tensor>& factors);

  /// Horizon-step prediction `j` of the last Run or Forecast:
  /// [B, N, N', K]. Valid until the next Run or Forecast.
  const Tensor& output(int64_t j) const {
    ODF_CHECK_GE(j, 0);
    ODF_CHECK_LT(j, horizon());
    return forecast_.Output(static_cast<size_t>(j));
  }

  int64_t history() const { return history_; }
  int64_t horizon() const {
    return static_cast<int64_t>(forecast_.outputs.size());
  }
  int64_t num_instructions() const {
    return static_cast<int64_t>(factorize_.instrs.size() +
                                forecast_.instrs.size());
  }
  /// Bytes of both stages' arenas at the largest batch each has run.
  int64_t arena_bytes() const;

  /// Distinct GraphOperators referenced by the schedule (empty for BF and
  /// graph-free ablations). Pointer-compared by tests to assert that plans
  /// compiled from independently constructed models share the memoized
  /// operators (graph/laplacian.h).
  const std::vector<std::shared_ptr<const GraphOperator>>& graph_operators()
      const {
    return graph_ops_;
  }

 private:
  friend class PlanCompiler;

  /// Instructions [previous phase's end, end) belong to phase_hists_[hist]
  /// (a serve.plan.<name>_seconds histogram), or to none when hist is -1.
  /// A label may own several segments — the encoders and decoders of the
  /// two factor sides interleave — and a call records each label's total
  /// once.
  struct Phase {
    size_t end = 0;
    int32_t hist = -1;
  };

  /// One compiled schedule over its own arena: stage F or stage G.
  struct Stage {
    std::vector<Instr> instrs;
    std::vector<BufShape> specs;   // flat allocation shape per arena slot
    std::vector<Tensor> bufs;      // arena slots, then constants
    std::vector<int32_t> outputs;  // buffer per output
    std::vector<Phase> phases;
    std::vector<BufShape> inputs;  // shape per input index
    int64_t batch = -1;            // batch the arena is viewed at
    int64_t capacity = 0;          // batch the arena is allocated for
    uint32_t kinds = 0;            // bit per OpKind the schedule holds
    uint64_t phase_set = 0;        // bit per phase_hists_ entry it feeds

    const Tensor& Output(size_t i) const {
      ODF_CHECK_LT(i, outputs.size());
      return bufs[static_cast<size_t>(outputs[i])];
    }
  };

  /// Times one call under metrics and records its profile.
  template <typename Body>
  void Profiled(Body body);
  /// Checks `inputs` against the stage's input shapes and runs it.
  void Execute(Stage& stage, const Tensor* const* inputs);
  void ExecuteForecast(const std::vector<Tensor>& factors);
  void EnsureBatch(Stage& stage, int64_t batch);
  void Exec(Stage& stage, const Instr& ins, const Tensor* const* inputs);

  Stage factorize_;
  Stage forecast_;
  std::vector<BufShape> factor_shapes_;  // R, C
  std::vector<Tensor> factor_inputs_;    // Run's stage-G inputs
  std::vector<const Tensor*> input_ptrs_;
  std::vector<Histogram*> phase_hists_;
  std::vector<uint64_t> phase_nanos_;
  // Per OpKind: its histogram if a schedule holds the kind, else null.
  std::vector<Histogram*> op_hists_;
  std::vector<uint64_t> op_nanos_;
  // The call being profiled: metrics on, and the kinds and phases it ran.
  bool profiling_ = false;
  uint32_t ran_kinds_ = 0;
  uint64_t ran_phases_ = 0;
  std::vector<std::shared_ptr<const GraphOperator>> graph_ops_;
  std::vector<const Tensor*> concat_scratch_;

  int64_t history_ = 0;
};

/// Compiles inference schedules from trained models by capturing their own
/// forward pass (see the ForwardPlan comment above). An instance holds one
/// stage's lowering state; the public non-static members are the interface
/// the per-op lowering rules in forward_plan.cc build on.
class PlanCompiler {
 public:
  /// `history` is the dataset's input window length s (ForecastDataset::
  /// history()): the number of factor pairs stage G reads.
  static ForwardPlan Compile(const FactorizedForecaster& model,
                             int64_t history);

  // -- lowering-rule interface: values are recorded op ids ----------------
  const autograd::CapturedOp& op(int32_t id) const;
  /// Batch-dependent (an arena value); otherwise a plan constant.
  bool batched(int32_t id) const;
  /// The value's shape at batch B (batch-dependent values only).
  const BufShape& shape(int32_t id) const {
    return values_[static_cast<size_t>(id)].shape;
  }
  /// Appends an instruction of `kind` that defines recorded op `id`, reads
  /// its first two parents as `a`/`b` and carries its attributes.
  Instr& Emit(OpKind kind, int32_t id);
  /// Makes `id` a free re-view of `source` (Reshape).
  void Alias(int32_t id, int32_t source);

 private:
  /// Compile-time state of one recorded value.
  struct Value {
    BufShape shape;     // batch-dependent values only
    int32_t root = -1;  // storage owner: itself, or a Reshape source's root
    int32_t last = -1;  // last instruction that reads it
    int32_t buf = -1;   // arena slot of a root
  };

  /// Compiles `rec` into `stage` of `plan`.
  PlanCompiler(const autograd::Recording& rec, ForwardPlan* plan,
               ForwardPlan::Stage* stage);

  void Lower();
  void AssignSlots();
  int32_t Buffer(int32_t id);
  void Build();

  Value& root(int32_t id) {
    return values_[static_cast<size_t>(
        values_[static_cast<size_t>(id)].root)];
  }

  const autograd::Recording& rec_;
  ForwardPlan* plan_;
  ForwardPlan::Stage* stage_;
  std::vector<Value> values_;
  std::vector<Instr> instrs_;        // operands are value ids until Build
  std::vector<const char*> phases_;  // label per instruction
  std::map<int32_t, int32_t> constants_;  // value id -> stage buffer
};

}  // namespace odf::serve

#endif  // ODF_SERVE_FORWARD_PLAN_H_
