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

namespace {

/// Re-views `t` as `spec` at batch size `batch` (allocation-free: the
/// buffer's element count never changes within a plan).
void PrepareShape(Tensor* t, const BufShape& spec, int64_t batch) {
  const auto& cur = t->shape().dims();
  const int64_t lead = spec.mult * batch;
  bool same = cur.size() == spec.tail.size() + 1 && cur[0] == lead;
  for (size_t i = 0; same && i < spec.tail.size(); ++i) {
    same = cur[i + 1] == spec.tail[i];
  }
  if (!same) *t = std::move(*t).Reshape(spec.Dims(batch));
}

}  // namespace

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

void ForwardPlan::EnsureBatch(int64_t batch) {
  if (batch == batch_) return;
  batch_ = batch;
  for (size_t i = 0; i < specs_.size(); ++i) {
    bufs_[i] = Tensor(Shape(specs_[i].Dims(batch)));
  }
}

void ForwardPlan::Exec(const Instr& ins, const std::vector<Tensor>& inputs) {
  Tensor& out = bufs_[static_cast<size_t>(ins.out)];
  PrepareShape(&out, ins.shape, batch_);
  const Tensor& a = ins.a >= 0 ? bufs_[static_cast<size_t>(ins.a)] : out;
  const Tensor& b = ins.b >= 0 ? bufs_[static_cast<size_t>(ins.b)] : out;
  switch (ins.kind) {
    case OpKind::kLoadInput: {
      const Tensor& in = inputs[static_cast<size_t>(ins.input_index)];
      ODF_CHECK_EQ(in.numel(), out.numel());
      std::copy(in.data(), in.data() + in.numel(), out.data());
      break;
    }
    case OpKind::kReshape:
      break;  // PrepareShape did the work
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
        concat_scratch_.push_back(&bufs_[static_cast<size_t>(src)]);
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

void ForwardPlan::Run(const std::vector<Tensor>& inputs) {
  ODF_CHECK_EQ(static_cast<int64_t>(inputs.size()), history_)
      << "plan compiled for a different history length";
  const int64_t batch = inputs.front().dim(0);
  ODF_CHECK_GT(batch, 0);
  for (const Tensor& in : inputs) {
    ODF_CHECK_EQ(in.rank(), static_cast<int64_t>(input_tail_.size()) + 1);
    ODF_CHECK_EQ(in.dim(0), batch);
    for (size_t d = 0; d < input_tail_.size(); ++d) {
      ODF_CHECK_EQ(in.dim(static_cast<int64_t>(d) + 1), input_tail_[d]);
    }
  }
  EnsureBatch(batch);

  static Histogram& run_hist =
      MetricsRegistry::Global().GetHistogram("serve.plan.run_seconds");
  ScopedTimer run_timer(run_hist);
  if (!MetricsEnabled()) {
    for (const Instr& ins : instrs_) Exec(ins, inputs);
    return;
  }
  static Counter& runs =
      MetricsRegistry::Global().GetCounter("serve.plan.runs");
  runs.Add(1);
  // One clock read per instruction: its time goes to its kind and phase.
  std::fill(phase_nanos_.begin(), phase_nanos_.end(), 0);
  std::fill(op_nanos_.begin(), op_nanos_.end(), 0);
  size_t i = 0;
  uint64_t last = MonotonicNanos();
  for (const Phase& phase : phases_) {
    for (; i < phase.end; ++i) {
      Exec(instrs_[i], inputs);
      const uint64_t now = MonotonicNanos();
      op_nanos_[static_cast<size_t>(instrs_[i].kind)] += now - last;
      if (phase.hist >= 0) {
        phase_nanos_[static_cast<size_t>(phase.hist)] += now - last;
      }
      last = now;
    }
  }
  for (size_t h = 0; h < phase_hists_.size(); ++h) {
    phase_hists_[h]->Record(phase_nanos_[h]);
  }
  for (size_t k = 0; k < op_hists_.size(); ++k) {
    if (op_hists_[k] != nullptr) op_hists_[k]->Record(op_nanos_[k]);
  }
}

// ---------------------------------------------------------------------------
// PlanCompiler: capture
// ---------------------------------------------------------------------------

namespace {

namespace ag = odf::autograd;

/// Runs `model`'s inference forward under a Capture on `history` zero
/// inputs of `batch` samples.
ag::Recording Record(const FactorizedForecaster& model, int64_t history,
                     int64_t batch) {
  Batch inputs;
  for (int64_t t = 0; t < history; ++t) {
    inputs.inputs.emplace_back(Shape({batch, model.num_origins(),
                                      model.num_destinations(),
                                      model.num_buckets()}));
  }
  ag::Capture capture;
  Rng rng(0);  // unused: dropout disabled
  const std::vector<ag::Var> outputs =
      model.Forecast(inputs, /*train=*/false, rng);
  return capture.Finish(outputs);
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

PlanCompiler::PlanCompiler(const ag::Recording& rec, int64_t history,
                           std::vector<int64_t> input_tail)
    : rec_(rec) {
  plan_.history_ = history;
  plan_.input_tail_ = std::move(input_tail);
  values_.resize(rec.ops.size());
  for (size_t id = 0; id < rec.ops.size(); ++id) {
    const ag::CapturedOp& op = rec.ops[id];
    if (!op.batched) continue;
    const std::vector<int64_t>& dims = op.shape().dims();
    values_[id].shape = {dims[0], {dims.begin() + 1, dims.end()}};
    values_[id].root = static_cast<int32_t>(id);
  }
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
    v.buf = static_cast<int32_t>(plan_.specs_.size());
    plan_.specs_.push_back({v.shape.NumelPerBatch(), {}});
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

/// The plan buffer holding value `id`: its root's arena slot, or (for a
/// parameter or folded value) a constant appended after the arena.
int32_t PlanCompiler::Buffer(int32_t id) {
  if (batched(id)) return root(id).buf;
  const auto it = constants_.find(id);
  if (it != constants_.end()) return it->second;
  const int32_t buf = static_cast<int32_t>(plan_.bufs_.size());
  plan_.bufs_.push_back(op(id).value());
  constants_[id] = buf;
  return buf;
}

ForwardPlan PlanCompiler::Build() {
  AssignSlots();
  const size_t slots = plan_.specs_.size();
  plan_.bufs_.resize(slots);
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
    plan_.instrs_.push_back(std::move(ins));
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
    if (graph != nullptr && std::find(plan_.graph_ops_.begin(),
                                      plan_.graph_ops_.end(),
                                      graph) == plan_.graph_ops_.end()) {
      plan_.graph_ops_.push_back(graph);
    }
    plan_.instrs_.push_back(std::move(ins));
    labels.push_back(label);
  }
  for (int32_t out : rec_.outputs) {
    ensure_view(out);
    plan_.outputs_.push_back(root(out).buf);
  }

  // Phase segments: maximal runs of instructions under one label.
  std::map<std::string, int32_t> hist_ids;
  for (size_t i = 0; i < labels.size(); ++i) {
    int32_t hist = -1;
    if (labels[i] != nullptr) {
      const std::string name = labels[i];
      const auto [it, added] = hist_ids.emplace(
          name, static_cast<int32_t>(plan_.phase_hists_.size()));
      if (added) {
        plan_.phase_hists_.push_back(&MetricsRegistry::Global().GetHistogram(
            "serve.plan." + name + "_seconds"));
      }
      hist = it->second;
    }
    if (plan_.phases_.empty() || plan_.phases_.back().hist != hist) {
      plan_.phases_.push_back({i, hist});
    }
    plan_.phases_.back().end = i + 1;
  }
  plan_.phase_nanos_.assign(plan_.phase_hists_.size(), 0);
  plan_.op_hists_.assign(kNumOpKinds, nullptr);
  plan_.op_nanos_.assign(kNumOpKinds, 0);
  for (const Instr& ins : plan_.instrs_) {
    Histogram*& hist = plan_.op_hists_[static_cast<size_t>(ins.kind)];
    if (hist == nullptr) {
      hist = &MetricsRegistry::Global().GetHistogram(
          std::string("serve.plan.op.") + OpKindName(ins.kind) + "_seconds");
    }
  }
  return std::move(plan_);
}

ForwardPlan PlanCompiler::Compile(const FactorizedForecaster& model,
                                  int64_t history) {
  ODF_CHECK_GT(history, 0);
  const ag::Recording one = Record(model, history, 1);
  CheckBatchScaling(one, Record(model, history, 2));
  PlanCompiler c(one, history,
                 {model.num_origins(), model.num_destinations(),
                  model.num_buckets()});
  c.Lower();
  return c.Build();
}

}  // namespace odf::serve
