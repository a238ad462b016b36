#include "serve/forward_plan.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "autograd/capture.h"
#include "nn/graph_pool.h"
#include "tensor/tensor_ops.h"

namespace odf::serve {

// Stage::kinds holds one bit per kind.
static_assert(kNumOpKinds <= 32);

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLoadInput: return "load_input";
    case OpKind::kReshape: return "reshape";
    case OpKind::kZero: return "zero";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kAddScalar: return "add_scalar";
    case OpKind::kMulScalar: return "mul_scalar";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kTanh: return "tanh";
    case OpKind::kRelu: return "relu";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kBatchMatMul: return "batch_matmul";
    case OpKind::kConcat: return "concat";
    case OpKind::kSlice: return "slice";
    case OpKind::kSum: return "sum";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kPermute: return "permute";
    case OpKind::kChebBasis: return "cheb_basis";
    case OpKind::kGraphApply: return "graph_apply";
    case OpKind::kGraphPool: return "graph_pool";
    case OpKind::kRecover: return "recover";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ForwardPlan execution
// ---------------------------------------------------------------------------

// The arena is allocated once at the largest batch the stage has run; a
// smaller batch re-views a prefix of each slot, and sets each instruction's
// view to the batch, which allocates nothing.
void ForwardPlan::EnsureBatch(Stage& stage, int64_t batch) {
  if (batch == stage.batch) return;
  stage.batch = batch;
  const bool grow = batch > stage.capacity;
  if (grow) stage.capacity = batch;
  Shape flat({0});  // a slot's flat shape; each view sets its own
  for (size_t i = 0; i < stage.specs.size(); ++i) {
    flat.set_dim(0, stage.specs[i].mult * batch);
    if (grow) {
      stage.bufs[i] = Tensor(flat);
    } else {
      stage.bufs[i].Resize(flat);
    }
  }
  for (Instr& ins : stage.instrs) ins.view.set_dim(0, ins.shape.mult * batch);
}

int64_t ForwardPlan::arena_bytes() const {
  int64_t floats = 0;
  for (const Stage* stage : {&factorize_, &forecast_}) {
    for (const BufShape& spec : stage->specs) {
      floats += spec.NumelPerBatch() * stage->capacity;
    }
  }
  return floats * static_cast<int64_t>(sizeof(float));
}

void ForwardPlan::Exec(Stage& stage, const Instr& ins,
                       const Tensor* const* inputs) {
  std::vector<Tensor>& bufs = stage.bufs;
  Tensor& out = bufs[static_cast<size_t>(ins.out)];
  // A re-view: the slot holds exactly the view's elements.
  if (out.shape() != ins.view) {
    ODF_DCHECK(ins.view.numel() == out.numel());
    out.Resize(ins.view);
  }
  const Tensor& a = ins.a >= 0 ? bufs[static_cast<size_t>(ins.a)] : out;
  const Tensor& b = ins.b >= 0 ? bufs[static_cast<size_t>(ins.b)] : out;
  switch (ins.kind) {
    case OpKind::kLoadInput: {
      const Tensor& in = *inputs[ins.input_index];
      ODF_CHECK_EQ(in.numel(), out.numel());
      std::copy(in.data(), in.data() + in.numel(), out.data());
      break;
    }
    case OpKind::kReshape:
      break;  // the re-view above did the work
    case OpKind::kZero:
      std::fill(out.data(), out.data() + out.numel(), 0.0f);
      break;
    case OpKind::kAdd:
      AddInto(a, b, &out);
      break;
    case OpKind::kSub:
      SubInto(a, b, &out);
      break;
    case OpKind::kMul:
      MulInto(a, b, &out);
      break;
    case OpKind::kAddScalar:
      AddScalarInto(a, ins.attrs.scalar, &out);
      break;
    case OpKind::kMulScalar:
      MulScalarInto(a, ins.attrs.scalar, &out);
      break;
    case OpKind::kSigmoid:
      SigmoidInto(a, &out);
      break;
    case OpKind::kTanh:
      TanhInto(a, &out);
      break;
    case OpKind::kRelu:
      ReluInto(a, &out);
      break;
    case OpKind::kMatMul:
      MatMulInto(a, b, &out);
      break;
    case OpKind::kBatchMatMul:
      BatchMatMulInto(a, b, &out);
      break;
    case OpKind::kConcat:
      concat_scratch_.clear();
      for (int32_t src : ins.srcs) {
        concat_scratch_.push_back(&bufs[static_cast<size_t>(src)]);
      }
      ConcatInto(concat_scratch_.data(), concat_scratch_.size(),
                 ins.attrs.axis, &out);
      break;
    case OpKind::kSlice:
      SliceInto(a, ins.attrs.axis, ins.attrs.start, ins.attrs.len, &out);
      break;
    case OpKind::kSum:
      SumInto(a, ins.attrs.axis, ins.attrs.keepdim, &out);
      break;
    case OpKind::kSoftmax:
      SoftmaxLastDimInto(a, &out);
      break;
    case OpKind::kPermute:
      PermuteInto(a, ins.attrs.perm, &out);
      break;
    case OpKind::kChebBasis:
      ChebyshevBasisInto(*ins.attrs.graph, a, ins.attrs.order, &out);
      break;
    case OpKind::kGraphApply:
      // The kernel ag::SpMM's forward calls.
      GraphApplyInto(*ins.attrs.graph, a, &out);
      break;
    case OpKind::kGraphPool:
      nn::GraphPoolForwardInto(a, *ins.attrs.clusters,
                               static_cast<nn::PoolKind>(ins.attrs.pool), &out,
                               nullptr);
      break;
    case OpKind::kRecover:  // a = r [B, n, beta, k], b = c [B, beta, m, k]
      FusedRecoverInto(a, b, ins.attrs.scalar, &out);
      break;
  }
}

void ForwardPlan::Execute(Stage& stage, const Tensor* const* inputs) {
  const BufShape& first = stage.inputs.front();
  ODF_CHECK_GT(inputs[0]->rank(), 0);
  const int64_t batch = inputs[0]->dim(0) / first.mult;
  ODF_CHECK_GT(batch, 0);
  for (size_t i = 0; i < stage.inputs.size(); ++i) {
    const std::vector<int64_t>& dims = inputs[i]->shape().dims();
    const BufShape& want = stage.inputs[i];
    bool ok = dims.size() == want.tail.size() + 1 &&
              dims[0] == want.mult * batch;
    for (size_t d = 0; ok && d < want.tail.size(); ++d) {
      ok = dims[d + 1] == want.tail[d];
    }
    ODF_CHECK(ok) << "plan input " << i << " is "
                  << inputs[i]->shape().ToString() << ", want "
                  << Shape(want.Dims(batch)).ToString();
  }
  EnsureBatch(stage, batch);

  if (!profiling_) {
    for (const Instr& ins : stage.instrs) Exec(stage, ins, inputs);
    return;
  }
  ran_kinds_ |= stage.kinds;
  ran_phases_ |= stage.phase_set;
  // One clock read per instruction: its time goes to its kind and phase.
  size_t i = 0;
  uint64_t last = MonotonicNanos();
  for (const Phase& phase : stage.phases) {
    for (; i < phase.end; ++i) {
      Exec(stage, stage.instrs[i], inputs);
      const uint64_t now = MonotonicNanos();
      op_nanos_[static_cast<size_t>(stage.instrs[i].kind)] += now - last;
      if (phase.hist >= 0) {
        phase_nanos_[static_cast<size_t>(phase.hist)] += now - last;
      }
      last = now;
    }
  }
}

template <typename Body>
void ForwardPlan::Profiled(Body body) {
  static Histogram& run_hist =
      MetricsRegistry::Global().GetHistogram("serve.plan.run_seconds");
  ScopedTimer run_timer(run_hist);
  profiling_ = MetricsEnabled();
  if (!profiling_) {
    body();
    return;
  }
  static Counter& runs =
      MetricsRegistry::Global().GetCounter("serve.plan.runs");
  runs.Add(1);
  std::fill(phase_nanos_.begin(), phase_nanos_.end(), 0);
  std::fill(op_nanos_.begin(), op_nanos_.end(), 0);
  ran_kinds_ = 0;
  ran_phases_ = 0;
  body();
  for (size_t h = 0; h < phase_hists_.size(); ++h) {
    if ((ran_phases_ >> h) & 1) phase_hists_[h]->Record(phase_nanos_[h]);
  }
  for (size_t k = 0; k < op_hists_.size(); ++k) {
    if ((ran_kinds_ >> k) & 1) op_hists_[k]->Record(op_nanos_[k]);
  }
}

void ForwardPlan::Run(const std::vector<Tensor>& inputs) {
  ODF_CHECK_EQ(static_cast<int64_t>(inputs.size()), history_)
      << "plan compiled for a different history length";
  const int64_t batch = inputs.front().dim(0);
  for (const Tensor& in : inputs) ODF_CHECK_EQ(in.dim(0), batch);
  Profiled([&] {
    for (size_t t = 0; t < inputs.size(); ++t) {
      const Tensor* in = &inputs[t];
      Execute(factorize_, &in);
      factor_inputs_[t] = factors(0);
      factor_inputs_[inputs.size() + t] = factors(1);
    }
    ExecuteForecast(factor_inputs_);
  });
}

void ForwardPlan::Factorize(const Tensor& intervals) {
  const Tensor* in = &intervals;
  Profiled([&] { Execute(factorize_, &in); });
}

void ForwardPlan::Forecast(const std::vector<Tensor>& factors) {
  Profiled([&] { ExecuteForecast(factors); });
}

void ForwardPlan::ExecuteForecast(const std::vector<Tensor>& factors) {
  ODF_CHECK_EQ(static_cast<int64_t>(factors.size()), 2 * history_)
      << "plan compiled for a different history length";
  input_ptrs_.clear();
  for (const Tensor& f : factors) input_ptrs_.push_back(&f);
  Execute(forecast_, input_ptrs_.data());
}

// ---------------------------------------------------------------------------
// PlanCompiler: capture
// ---------------------------------------------------------------------------

namespace {

namespace ag = odf::autograd;

/// Stage F's forward under a Capture: `model`'s factorization of one zero
/// interval stack of `batch` intervals. Outputs: the R and C factors.
ag::Recording RecordFactorize(const FactorizedForecaster& model,
                              int64_t batch) {
  const Tensor intervals(Shape({batch, model.num_origins(),
                                model.num_destinations(),
                                model.num_buckets()}));
  ag::Capture capture;
  Rng rng(0);  // unused: dropout disabled
  const FactorizedForecaster::Factors factors =
      model.FactorizeInterval(intervals, 0, /*train=*/false, rng);
  return capture.Finish({factors.r, factors.c});
}

/// Stage G's forward under a Capture: `model`'s forecast and recovery of
/// `history` zero factor pairs of `batch` samples, shaped `factor_shapes`
/// (R, C). Inputs: the R factors oldest first, then the C factors.
ag::Recording RecordForecast(const FactorizedForecaster& model,
                             const std::vector<BufShape>& factor_shapes,
                             int64_t history, int64_t batch) {
  auto input = [&](int side, int64_t index) {
    return ag::Var::BatchInput(
        Tensor(Shape(factor_shapes[static_cast<size_t>(side)].Dims(batch))),
        index);
  };
  ag::Capture capture;
  FactorizedForecaster::FactorSequences window;
  for (int64_t t = 0; t < history; ++t) window.r.push_back(input(0, t));
  for (int64_t t = 0; t < history; ++t) {
    window.c.push_back(input(1, history + t));
  }
  return capture.Finish(model.ForecastFromFactors(window));
}

/// The plan reads every batch-dependent value as {mult · B, tail}. Checks
/// that claim: the batch-2 recording must repeat the batch-1 one op for op,
/// with each batch-dependent leading dimension doubled and nothing else
/// changed.
void CheckBatchScaling(const ag::Recording& one, const ag::Recording& two) {
  ODF_CHECK_EQ(one.ops.size(), two.ops.size())
      << "the captured forward's op sequence depends on the batch size";
  ODF_CHECK(one.outputs == two.outputs);
  for (size_t i = 0; i < one.ops.size(); ++i) {
    const ag::CapturedOp& x = one.ops[i];
    const ag::CapturedOp& y = two.ops[i];
    const std::vector<int64_t>& dx = x.shape().dims();
    const std::vector<int64_t>& dy = y.shape().dims();
    bool same = std::strcmp(x.op, y.op) == 0 && x.parents == y.parents &&
                x.batched == y.batched && x.input_index == y.input_index &&
                x.attrs == y.attrs && dx.size() == dy.size() && !dx.empty();
    for (size_t d = 0; same && d < dx.size(); ++d) {
      same = dy[d] == (d == 0 && x.batched ? 2 * dx[d] : dx[d]);
    }
    ODF_CHECK(same) << "captured op " << i << " (" << x.op
                    << ") does not scale with the batch: "
                    << x.shape().ToString() << " at batch 1, "
                    << y.shape().ToString() << " at batch 2";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanCompiler: lowering
// ---------------------------------------------------------------------------

PlanCompiler::PlanCompiler(const ag::Recording& rec, ForwardPlan* plan,
                           ForwardPlan::Stage* stage)
    : rec_(rec), plan_(plan), stage_(stage) {
  values_.resize(rec.ops.size());
  for (size_t id = 0; id < rec.ops.size(); ++id) {
    const ag::CapturedOp& op = rec.ops[id];
    if (!op.batched) continue;
    const std::vector<int64_t>& dims = op.shape().dims();
    values_[id].shape = {dims[0], {dims.begin() + 1, dims.end()}};
    values_[id].root = static_cast<int32_t>(id);
    if (op.input_index >= 0) {
      const size_t index = static_cast<size_t>(op.input_index);
      if (stage->inputs.size() <= index) stage->inputs.resize(index + 1);
      stage->inputs[index] = values_[id].shape;
    }
  }
  ODF_CHECK(!stage->inputs.empty()) << "a plan stage reads no input";
}

const ag::CapturedOp& PlanCompiler::op(int32_t id) const {
  return rec_.ops[static_cast<size_t>(id)];
}

bool PlanCompiler::batched(int32_t id) const { return op(id).batched; }

Instr& PlanCompiler::Emit(OpKind kind, int32_t id) {
  const ag::CapturedOp& recorded = op(id);
  Instr ins;
  ins.kind = kind;
  ins.out = id;
  ins.shape = shape(id);
  if (!recorded.parents.empty()) ins.a = recorded.parents[0];
  if (recorded.parents.size() > 1) ins.b = recorded.parents[1];
  ins.attrs = recorded.attrs;
  instrs_.push_back(std::move(ins));
  phases_.push_back(recorded.phase);
  return instrs_.back();
}

void PlanCompiler::Alias(int32_t id, int32_t source) {
  values_[static_cast<size_t>(id)].root =
      values_[static_cast<size_t>(source)].root;
}

namespace {

// Each instruction's operands in reading order.
template <typename Fn>
void ForEachRead(const Instr& ins, Fn fn) {
  if (ins.a >= 0) fn(ins.a);
  if (ins.b >= 0) fn(ins.b);
  if (ins.kind == OpKind::kConcat) {
    for (int32_t src : ins.srcs) fn(src);
  }
}

/// Elementwise kernels (kAdd..kRelu) may write over an operand of the
/// output's shape: each element is read before it is written.
bool InPlace(OpKind kind) {
  return kind >= OpKind::kAdd && kind <= OpKind::kRelu;
}

// -- Lowering rules: one per recorded op name --------------------------------

// The op's kernel over its first two parents, with its attributes.
template <OpKind K>
void Lower(PlanCompiler& c, int32_t id) {
  c.Emit(K, id);
}

void LowerConcat(PlanCompiler& c, int32_t id) {
  Instr& ins = c.Emit(OpKind::kConcat, id);
  ins.a = ins.b = -1;
  ins.srcs = c.op(id).parents;
}

void LowerFusedRecover(PlanCompiler& c, int32_t id) {
  const int32_t temperature = c.op(id).parents[2];
  ODF_CHECK(!c.batched(temperature));
  c.Emit(OpKind::kRecover, id).attrs.scalar = c.op(temperature).value()[0];
}

void LowerBatchInput(PlanCompiler& c, int32_t id) {
  c.Emit(OpKind::kLoadInput, id).input_index =
      static_cast<int32_t>(c.op(id).input_index);
}

void LowerReshape(PlanCompiler& c, int32_t id) {
  c.Alias(id, c.op(id).parents[0]);
}

using Rule = void (*)(PlanCompiler&, int32_t);

const std::map<std::string_view, Rule>& Rules() {
  static const std::map<std::string_view, Rule> rules = {
      {"BatchInput", LowerBatchInput},
      {"BatchZeros", Lower<OpKind::kZero>},
      {"Reshape", LowerReshape},
      {"Add", Lower<OpKind::kAdd>},
      {"Sub", Lower<OpKind::kSub>},
      {"Mul", Lower<OpKind::kMul>},
      {"AddScalar", Lower<OpKind::kAddScalar>},
      {"MulScalar", Lower<OpKind::kMulScalar>},
      {"Sigmoid", Lower<OpKind::kSigmoid>},
      {"Tanh", Lower<OpKind::kTanh>},
      {"Relu", Lower<OpKind::kRelu>},
      {"SoftmaxLastDim", Lower<OpKind::kSoftmax>},
      {"MatMul", Lower<OpKind::kMatMul>},
      {"BatchMatMul", Lower<OpKind::kBatchMatMul>},
      {"SpMM", Lower<OpKind::kGraphApply>},
      {"ChebyshevBasis", Lower<OpKind::kChebBasis>},
      {"Concat", LowerConcat},
      {"Slice", Lower<OpKind::kSlice>},
      {"SumAxis", Lower<OpKind::kSum>},
      {"Permute", Lower<OpKind::kPermute>},
      {"GraphPool", Lower<OpKind::kGraphPool>},
      {"FusedRecover", LowerFusedRecover},
  };
  return rules;
}

}  // namespace

void PlanCompiler::Lower() {
  // Only ops the outputs depend on are lowered.
  std::vector<bool> live(rec_.ops.size(), false);
  for (int32_t out : rec_.outputs) live[static_cast<size_t>(out)] = true;
  for (size_t id = rec_.ops.size(); id-- > 0;) {
    if (!live[id]) continue;
    for (int32_t p : rec_.ops[id].parents) live[static_cast<size_t>(p)] = true;
  }
  for (size_t id = 0; id < rec_.ops.size(); ++id) {
    const ag::CapturedOp& op = rec_.ops[id];
    if (!live[id] || !op.batched) continue;  // constants need no instruction
    const auto rule = Rules().find(op.op);
    ODF_CHECK(rule != Rules().end())
        << "no serving-plan lowering for op '" << op.op << "'";
    rule->second(*this, static_cast<int32_t>(id));
  }
}

// Liveness-based arena: walks the schedule once, giving each value a slot
// when it is defined and returning the slot to a per-size free list after
// its last read. Slots are shared only between values of equal per-batch
// size, so every view of a slot is a plain re-view. Reshape aliases live
// in their source's slot and extend its interval; plan outputs never die.
void PlanCompiler::AssignSlots() {
  const int32_t end = static_cast<int32_t>(instrs_.size());
  for (int32_t p = 0; p < end; ++p) {
    const Instr& ins = instrs_[static_cast<size_t>(p)];
    ForEachRead(ins, [&](int32_t v) {
      if (batched(v)) root(v).last = std::max(root(v).last, p);
    });
  }
  for (int32_t out : rec_.outputs) root(out).last = end;

  std::map<int64_t, std::vector<int32_t>> free;  // per-batch numel -> slots
  std::vector<bool> released(values_.size(), false);
  auto take = [&](Value& v) {
    std::vector<int32_t>& pool = free[v.shape.NumelPerBatch()];
    if (!pool.empty()) {
      v.buf = pool.back();
      pool.pop_back();
      return;
    }
    v.buf = static_cast<int32_t>(stage_->specs.size());
    stage_->specs.push_back({v.shape.NumelPerBatch(), {}});
  };
  auto release = [&](int32_t id, int32_t p) {
    const size_t r = static_cast<size_t>(values_[static_cast<size_t>(id)].root);
    if (values_[r].last > p || released[r]) return;
    released[r] = true;
    free[values_[r].shape.NumelPerBatch()].push_back(values_[r].buf);
  };
  for (int32_t p = 0; p < end; ++p) {
    const Instr& ins = instrs_[static_cast<size_t>(p)];
    // Write over a same-shaped operand that dies here, else take a slot.
    int32_t donor = -1;
    if (InPlace(ins.kind)) {
      ForEachRead(ins, [&](int32_t v) {
        if (donor < 0 && batched(v) && root(v).last == p &&
            shape(v) == shape(ins.out)) {
          donor = values_[static_cast<size_t>(v)].root;
        }
      });
    }
    if (donor >= 0) {
      root(ins.out).buf = values_[static_cast<size_t>(donor)].buf;
      released[static_cast<size_t>(donor)] = true;  // handed over
    } else {
      take(root(ins.out));
    }
    ForEachRead(ins, [&](int32_t v) {
      if (batched(v)) release(v, p);
    });
    release(ins.out, p);  // a value nothing reads
  }
}

/// The stage buffer holding value `id`: its root's arena slot, or (for a
/// parameter or folded value) a constant appended after the arena.
int32_t PlanCompiler::Buffer(int32_t id) {
  if (batched(id)) return root(id).buf;
  const auto it = constants_.find(id);
  if (it != constants_.end()) return it->second;
  const int32_t buf = static_cast<int32_t>(stage_->bufs.size());
  stage_->bufs.push_back(op(id).value());
  constants_[id] = buf;
  return buf;
}

void PlanCompiler::Build() {
  AssignSlots();
  const size_t slots = stage_->specs.size();
  stage_->bufs.resize(slots);
  // A shared slot is re-viewed whenever an instruction reads a value whose
  // view differs from what the slot last held.
  std::vector<BufShape> view(slots);
  std::vector<bool> known(slots, false);
  std::vector<const char*> labels;  // per emitted instruction
  const char* label = nullptr;
  auto ensure_view = [&](int32_t id) {
    if (!batched(id)) return;
    const size_t slot = static_cast<size_t>(root(id).buf);
    if (known[slot] && view[slot] == shape(id)) return;
    Instr ins;
    ins.kind = OpKind::kReshape;
    ins.out = static_cast<int32_t>(slot);
    ins.shape = shape(id);
    stage_->instrs.push_back(std::move(ins));
    labels.push_back(label);
    view[slot] = shape(id);
    known[slot] = true;
  };
  for (size_t p = 0; p < instrs_.size(); ++p) {
    Instr ins = std::move(instrs_[p]);
    label = phases_[p];
    ForEachRead(ins, ensure_view);
    ForEachRead(ins, [&](int32_t id) {
      ODF_CHECK(!batched(id) ||
                view[static_cast<size_t>(root(id).buf)] == shape(id))
          << "an instruction reads one buffer under two views";
    });
    if (ins.a >= 0) ins.a = Buffer(ins.a);
    if (ins.b >= 0) ins.b = Buffer(ins.b);
    for (int32_t& src : ins.srcs) src = Buffer(src);
    ins.out = root(ins.out).buf;
    view[static_cast<size_t>(ins.out)] = ins.shape;
    known[static_cast<size_t>(ins.out)] = true;
    const auto& graph = ins.attrs.graph;
    std::vector<std::shared_ptr<const GraphOperator>>& graphs =
        plan_->graph_ops_;
    if (graph != nullptr &&
        std::find(graphs.begin(), graphs.end(), graph) == graphs.end()) {
      graphs.push_back(graph);
    }
    stage_->instrs.push_back(std::move(ins));
    labels.push_back(label);
  }
  for (int32_t out : rec_.outputs) {
    ensure_view(out);
    stage_->outputs.push_back(root(out).buf);
  }

  // Phase segments: maximal runs of instructions under one label. Both
  // stages share the plan's list of phase histograms.
  auto phase_of = [&](const char* name) {
    if (name == nullptr) return -1;
    Histogram* h = &MetricsRegistry::Global().GetHistogram(
        std::string("serve.plan.") + name + "_seconds");
    std::vector<Histogram*>& hists = plan_->phase_hists_;
    const auto hist = static_cast<int32_t>(
        std::find(hists.begin(), hists.end(), h) - hists.begin());
    if (hist == static_cast<int32_t>(hists.size())) hists.push_back(h);
    ODF_CHECK_LT(hist, 64);
    stage_->phase_set |= uint64_t{1} << hist;
    return hist;
  };
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i == 0 || labels[i] != labels[i - 1]) {
      const int32_t hist = phase_of(labels[i]);
      if (stage_->phases.empty() || stage_->phases.back().hist != hist) {
        stage_->phases.push_back({i, hist});
      }
    }
    stage_->phases.back().end = i + 1;
  }
  plan_->op_hists_.resize(kNumOpKinds, nullptr);
  for (Instr& ins : stage_->instrs) {
    ins.view = Shape(ins.shape.Dims(1));  // EnsureBatch sets the batch
    stage_->kinds |= uint32_t{1} << static_cast<int>(ins.kind);
    Histogram*& hist = plan_->op_hists_[static_cast<size_t>(ins.kind)];
    if (hist == nullptr) {
      hist = &MetricsRegistry::Global().GetHistogram(
          std::string("serve.plan.op.") + OpKindName(ins.kind) + "_seconds");
    }
  }
}

ForwardPlan PlanCompiler::Compile(const FactorizedForecaster& model,
                                  int64_t history) {
  ODF_CHECK_GT(history, 0);
  ForwardPlan plan;
  plan.history_ = history;

  // Stage F: one interval to its factors.
  const ag::Recording factorize = RecordFactorize(model, 1);
  CheckBatchScaling(factorize, RecordFactorize(model, 2));
  ODF_CHECK_EQ(factorize.outputs.size(), 2u);
  PlanCompiler f(factorize, &plan, &plan.factorize_);
  f.Lower();
  f.Build();
  for (int32_t out : factorize.outputs) {
    ODF_CHECK(f.batched(out)) << "a factor that does not depend on its input";
    plan.factor_shapes_.push_back(f.shape(out));
  }

  // Stage G: one window of factors to the horizon outputs.
  const ag::Recording forecast =
      RecordForecast(model, plan.factor_shapes_, history, 1);
  CheckBatchScaling(forecast,
                    RecordForecast(model, plan.factor_shapes_, history, 2));
  PlanCompiler g(forecast, &plan, &plan.forecast_);
  g.Lower();
  g.Build();
  ODF_CHECK_EQ(static_cast<int64_t>(plan.forecast_.inputs.size()),
               2 * history);

  plan.factor_inputs_.resize(static_cast<size_t>(2 * history));
  plan.phase_nanos_.assign(plan.phase_hists_.size(), 0);
  plan.op_nanos_.assign(kNumOpKinds, 0);
  return plan;
}

}  // namespace odf::serve
