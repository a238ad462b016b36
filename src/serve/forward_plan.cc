#include "serve/forward_plan.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "nn/attention.h"
#include "nn/cheb_conv.h"
#include "nn/gcgru.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "tensor/fast_math.h"
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

/// Permutes `src` (row-major, dims `in_dims`) by `perm` into `dst`. Same
/// element mapping as PermuteInto (a permutation is a pure relabeling, so
/// any traversal yields identical bytes); axes the permutation leaves in
/// place at the tail are contiguous with stride 1 in both layouts and are
/// copied as one chunk instead of element-by-element.
void PermuteRaw(const float* src, const std::vector<int64_t>& in_dims,
                const std::vector<int64_t>& perm, float* dst) {
  const int64_t rank = static_cast<int64_t>(in_dims.size());
  std::vector<int64_t> new_dims(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    new_dims[i] = in_dims[static_cast<size_t>(perm[i])];
  }
  std::vector<int64_t> in_strides(in_dims.size(), 1);
  for (int64_t d = rank - 2; d >= 0; --d) {
    const size_t du = static_cast<size_t>(d);
    in_strides[du] = in_strides[du + 1] * in_dims[du + 1];
  }
  std::vector<int64_t> src_strides(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    src_strides[i] = in_strides[static_cast<size_t>(perm[i])];
  }
  int64_t numel = 1;
  for (int64_t d : in_dims) numel *= d;
  int64_t chunk_rank = rank;
  int64_t chunk = 1;
  while (chunk_rank > 0 &&
         perm[static_cast<size_t>(chunk_rank - 1)] == chunk_rank - 1) {
    --chunk_rank;
    chunk *= new_dims[static_cast<size_t>(chunk_rank)];
  }
  if (chunk_rank == 0) {  // identity permutation: one straight copy
    std::copy(src, src + numel, dst);
    return;
  }
  std::vector<int64_t> index(static_cast<size_t>(chunk_rank), 0);
  int64_t si = 0;
  for (int64_t flat = 0; flat < numel; flat += chunk) {
    for (int64_t j = 0; j < chunk; ++j) dst[flat + j] = src[si + j];
    for (int64_t d = chunk_rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      ++index[du];
      si += src_strides[du];
      if (index[du] < new_dims[du]) break;
      si -= src_strides[du] * new_dims[du];
      index[du] = 0;
    }
  }
}

/// out = fn(a, b) with NumPy-style broadcasting. Mirrors BroadcastBinaryInto's
/// stride-0 odometer (the same single fn application per element, so it is
/// bit-identical to the facade) without the facade's per-call shape checks.
template <typename Fn>
void BroadcastBinaryRaw(const float* pa, const Tensor& am, const float* pb,
                        const Tensor& bm, float* po, const Tensor& om, Fn fn) {
  if (am.shape() == bm.shape()) {
    const int64_t numel = am.numel();
    for (int64_t i = 0; i < numel; ++i) po[i] = fn(pa[i], pb[i]);
    return;
  }
  const int64_t rank = om.rank();
  auto broadcast_strides = [&](const Tensor& t) {
    std::vector<int64_t> strides(static_cast<size_t>(rank), 0);
    const auto own = t.shape().Strides();
    const int64_t offset = rank - t.rank();
    for (int64_t i = 0; i < t.rank(); ++i) {
      if (t.dim(i) != 1) {
        strides[static_cast<size_t>(offset + i)] = own[static_cast<size_t>(i)];
      }
    }
    return strides;
  };
  const auto sa = broadcast_strides(am);
  const auto sb = broadcast_strides(bm);
  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  int64_t ai = 0;
  int64_t bi = 0;
  const int64_t numel = om.numel();
  for (int64_t flat = 0; flat < numel; ++flat) {
    po[flat] = fn(pa[ai], pb[bi]);
    for (int64_t d = rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      ++index[du];
      ai += sa[du];
      bi += sb[du];
      if (index[du] < om.dim(d)) break;
      ai -= sa[du] * om.dim(d);
      bi -= sb[du] * om.dim(d);
      index[du] = 0;
    }
  }
}

void SliceRaw(const float* pa, const Tensor& am, int64_t axis, int64_t start,
              int64_t len, float* po) {
  if (axis < 0) axis += am.rank();
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= am.dim(d);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < am.rank(); ++d) inner *= am.dim(d);
  const int64_t src_row = am.dim(axis) * inner;
  const int64_t dst_row = len * inner;
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = pa + o * src_row + start * inner;
    std::copy(src, src + dst_row, po + o * dst_row);
  }
}

/// Port of nn::GraphPoolForwardInto (no argmax: serving never needs the
/// max-pool backward indices, and dropping the per-update argmax branch keeps
/// the inner loops tight). Per-element operation order — cluster-order
/// accumulate then one inverse multiply, or the same compare-and-replace
/// chain — matches the facade exactly, so it is bit-identical to the tape's
/// GraphPool.
// Four-cells-per-step average pooling over the batch-divisible prefix,
// with the feature width as a compile-time constant when it matches one of
// the widths the model actually runs (F == 0 keeps it a runtime value).
// Constant trip counts let the compiler emit straight-line vector code for
// the three per-cluster loops, whose setup otherwise dominates at
// single-digit feature widths.
template <int64_t F>
int64_t GraphPoolAvgQuad(const float* x, int64_t batch, int64_t n,
                         int64_t features,
                         const std::vector<std::vector<int64_t>>& clusters,
                         float* out) {
  const int64_t nf = F > 0 ? F : features;
  const int64_t nc = static_cast<int64_t>(clusters.size());
  int64_t b = 0;
  for (; b + 4 <= batch; b += 4) {
    for (int64_t c = 0; c < nc; ++c) {
      const auto& cluster = clusters[static_cast<size_t>(c)];
      float* d0 = out + ((b + 0) * nc + c) * nf;
      float* d1 = out + ((b + 1) * nc + c) * nf;
      float* d2 = out + ((b + 2) * nc + c) * nf;
      float* d3 = out + ((b + 3) * nc + c) * nf;
      for (int64_t f = 0; f < nf; ++f) {
        d0[f] = 0.0f;
        d1[f] = 0.0f;
        d2[f] = 0.0f;
        d3[f] = 0.0f;
      }
      for (int64_t i : cluster) {
        const float* s0 = x + ((b + 0) * n + i) * nf;
        const float* s1 = x + ((b + 1) * n + i) * nf;
        const float* s2 = x + ((b + 2) * n + i) * nf;
        const float* s3 = x + ((b + 3) * n + i) * nf;
        for (int64_t f = 0; f < nf; ++f) {
          d0[f] += s0[f];
          d1[f] += s1[f];
          d2[f] += s2[f];
          d3[f] += s3[f];
        }
      }
      const float inv = 1.0f / static_cast<float>(cluster.size());
      for (int64_t f = 0; f < nf; ++f) {
        d0[f] *= inv;
        d1[f] *= inv;
        d2[f] *= inv;
        d3[f] *= inv;
      }
    }
  }
  return b;
}

void GraphPoolRaw(const float* x, int64_t batch, int64_t n, int64_t features,
                  const std::vector<std::vector<int64_t>>& clusters,
                  nn::PoolKind kind, float* out) {
  const int64_t nc = static_cast<int64_t>(clusters.size());
  int64_t b = 0;
  if (kind == nn::PoolKind::kAverage) {
    // Four batch cells per step: the accumulate chains through the
    // destination row, and at the serving feature widths (single-digit) one
    // row is a single vector, so a lone cell serializes on that store-load
    // chain. Four independent cells cover the add latency. Each output cell
    // still accumulates its own cluster rows in cluster order, so results
    // are bit-identical to the one-cell-at-a-time facade.
    switch (features) {
      case 7:
        b = GraphPoolAvgQuad<7>(x, batch, n, features, clusters, out);
        break;
      case 8:
        b = GraphPoolAvgQuad<8>(x, batch, n, features, clusters, out);
        break;
      default:
        b = GraphPoolAvgQuad<0>(x, batch, n, features, clusters, out);
        break;
    }
  }
  for (; b < batch; ++b) {
    for (int64_t c = 0; c < nc; ++c) {
      const auto& cluster = clusters[static_cast<size_t>(c)];
      float* dst = out + (b * nc + c) * features;
      if (kind == nn::PoolKind::kAverage) {
        for (int64_t f = 0; f < features; ++f) dst[f] = 0.0f;
        for (int64_t i : cluster) {
          const float* src = x + (b * n + i) * features;
          for (int64_t f = 0; f < features; ++f) dst[f] += src[f];
        }
        const float inv = 1.0f / static_cast<float>(cluster.size());
        for (int64_t f = 0; f < features; ++f) dst[f] *= inv;
      } else {
        for (int64_t f = 0; f < features; ++f) {
          dst[f] = -std::numeric_limits<float>::infinity();
        }
        for (int64_t i : cluster) {
          const float* src = x + (b * n + i) * features;
          for (int64_t f = 0; f < features; ++f) {
            if (src[f] > dst[f]) dst[f] = src[f];
          }
        }
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ForwardPlan execution
// ---------------------------------------------------------------------------

void ForwardPlan::EnsureBatch(int64_t batch) {
  if (batch == batch_) return;
  batch_ = batch;
  bufs_.clear();
  bufs_.reserve(specs_.size());
  for (const BufShape& spec : specs_) {
    bufs_.emplace_back(Shape(spec.Dims(batch)));
  }
}

void ForwardPlan::Exec(const Instr& ins, const std::vector<Tensor>& inputs) {
  Tensor& out = bufs_[static_cast<size_t>(ins.out)];
  PrepareShape(&out, ins.shape, batch_);
  switch (ins.kind) {
    case OpKind::kLoadInput: {
      const Tensor& in = inputs[static_cast<size_t>(ins.input_index)];
      std::copy(in.data(), in.data() + in.numel(),
                out.data() + ins.start * batch_);
      break;
    }
    case OpKind::kLoadInputPermuted: {
      const Tensor& in = inputs[static_cast<size_t>(ins.input_index)];
      PermuteRaw(in.data(), in.shape().dims(), ins.perm, out.data());
      break;
    }
    case OpKind::kReshape:
      break;  // PrepareShape did the work
    case OpKind::kCopy: {
      const Tensor& a = bufs_[static_cast<size_t>(ins.a)];
      std::copy(a.data(), a.data() + a.numel(), out.data());
      break;
    }
    case OpKind::kSliceRows: {
      const float* src =
          bufs_[static_cast<size_t>(ins.a)].data() + ins.start * batch_;
      std::copy(src, src + out.numel(), out.data());
      break;
    }
    case OpKind::kStackRows: {
      const Tensor& a = bufs_[static_cast<size_t>(ins.a)];
      std::copy(a.data(), a.data() + a.numel(),
                out.data() + ins.start * batch_);
      break;
    }
    case OpKind::kZero:
      std::fill(out.data(), out.data() + out.numel(), 0.0f);
      break;
    case OpKind::kAdd: {
      const Tensor& a = bufs_[static_cast<size_t>(ins.a)];
      const Tensor& b = bufs_[static_cast<size_t>(ins.b)];
      BroadcastBinaryRaw(a.data(), a, b.data(), b, out.data(), out,
                         [](float x, float y) { return x + y; });
      break;
    }
    case OpKind::kMul: {
      const Tensor& a = bufs_[static_cast<size_t>(ins.a)];
      const Tensor& b = bufs_[static_cast<size_t>(ins.b)];
      BroadcastBinaryRaw(a.data(), a, b.data(), b, out.data(), out,
                         [](float x, float y) { return x * y; });
      break;
    }
    case OpKind::kAddBiasW: {
      // Bias broadcast over the last axis, written as the plain 2-D loop:
      // per element the identical single addition AddInto performs, minus
      // its shape machinery (biases are rank-1; asserted at compile).
      const Tensor& a = bufs_[static_cast<size_t>(ins.a)];
      const Tensor& bias = weights_[static_cast<size_t>(ins.w)];
      const int64_t cols = bias.numel();
      const int64_t rows = a.numel() / cols;
      const float* ap = a.data();
      const float* bp = bias.data();
      float* op = out.data();
      for (int64_t r = 0; r < rows; ++r, ap += cols, op += cols) {
        for (int64_t j = 0; j < cols; ++j) op[j] = ap[j] + bp[j];
      }
      break;
    }
    case OpKind::kAddScalar: {
      const float* ap = bufs_[static_cast<size_t>(ins.a)].data();
      const int64_t numel = out.numel();
      float* po = out.data();
      for (int64_t i = 0; i < numel; ++i) po[i] = ap[i] + ins.scalar;
      break;
    }
    case OpKind::kMulScalar: {
      const float* ap = bufs_[static_cast<size_t>(ins.a)].data();
      const int64_t numel = out.numel();
      float* po = out.data();
      for (int64_t i = 0; i < numel; ++i) po[i] = ap[i] * ins.scalar;
      break;
    }
    case OpKind::kSigmoid:
      SigmoidInto(bufs_[static_cast<size_t>(ins.a)], &out);
      break;
    case OpKind::kTanh:
      TanhInto(bufs_[static_cast<size_t>(ins.a)], &out);
      break;
    case OpKind::kRelu:
      ReluInto(bufs_[static_cast<size_t>(ins.a)], &out);
      break;
    case OpKind::kMatMulW:
      if (ins.prepacked) {
        MatMulPrepackedInto(bufs_[static_cast<size_t>(ins.a)],
                            packed_[static_cast<size_t>(ins.w)], &out);
      } else {
        MatMulInto(bufs_[static_cast<size_t>(ins.a)],
                   weights_[static_cast<size_t>(ins.w)], &out);
      }
      break;
    case OpKind::kBatchMatMulW:
      if (ins.prepacked) {
        // [B', r, k] x [k, n] flattens to one [B'·r, k] x [k, n] product —
        // each output row accumulates the same k-ascending sum either way.
        MatMulPrepackedInto(bufs_[static_cast<size_t>(ins.a)],
                            packed_[static_cast<size_t>(ins.w)], &out);
      } else {
        BatchMatMulInto(bufs_[static_cast<size_t>(ins.a)],
                        weights_[static_cast<size_t>(ins.w)], &out);
      }
      break;
    case OpKind::kConcat2: {
      const Tensor* parts[2] = {&bufs_[static_cast<size_t>(ins.a)],
                                &bufs_[static_cast<size_t>(ins.b)]};
      ConcatInto(parts, 2, ins.axis, &out);
      break;
    }
    case OpKind::kConcatN: {
      concat_scratch_.clear();
      for (int32_t src : ins.srcs) {
        concat_scratch_.push_back(&bufs_[static_cast<size_t>(src)]);
      }
      ConcatInto(concat_scratch_.data(), concat_scratch_.size(), ins.axis,
                 &out);
      break;
    }
    case OpKind::kSlice: {
      const Tensor& a = bufs_[static_cast<size_t>(ins.a)];
      SliceRaw(a.data(), a, ins.axis, ins.start, ins.len, out.data());
      break;
    }
    case OpKind::kSumKeep:
      SumInto(bufs_[static_cast<size_t>(ins.a)], ins.axis, /*keepdim=*/true,
              &out);
      break;
    case OpKind::kSoftmax:
      SoftmaxLastDimInto(bufs_[static_cast<size_t>(ins.a)], &out);
      break;
    case OpKind::kPermute: {
      const Tensor& a = bufs_[static_cast<size_t>(ins.a)];
      PermuteRaw(a.data(), a.shape().dims(), ins.perm, out.data());
      break;
    }
    case OpKind::kChebBasis: {
      // Same raw kernel the facade wraps; the compiler already sized every
      // buffer, so the facade's per-call Shape construction is skipped.
      const Tensor& x = bufs_[static_cast<size_t>(ins.a)];
      const CsrMatrix& csr = ins.graph->csr();
      ChebyshevBasisWideRaw(
          ins.graph->use_sparse() ? nullptr : ins.graph->dense().data(),
          csr.row_ptr().data(), csr.col_idx().data(), csr.values().data(),
          csr.nnz(), x.dim(1), x.data(), x.dim(0), x.dim(2), ins.order,
          out.data(), bufs_[static_cast<size_t>(ins.srcs[0])].data(),
          bufs_[static_cast<size_t>(ins.srcs[1])].data(),
          bufs_[static_cast<size_t>(ins.srcs[2])].data());
      break;
    }
    case OpKind::kGraphApply: {
      // The same kernels ag::SpMM's forward dispatches to (tiled CSR SpMM /
      // batched blocked GEMM), so the diffusion and adaptive tap chains
      // match the tape bit for bit.
      GraphApplyInto(*ins.graph, bufs_[static_cast<size_t>(ins.a)], &out);
      break;
    }
    case OpKind::kGraphPool: {
      const Tensor& x = bufs_[static_cast<size_t>(ins.a)];
      GraphPoolRaw(x.data(), x.dim(0), x.dim(1), x.dim(2), *ins.clusters,
                   ins.pool, out.data());
      break;
    }
    case OpKind::kRecover: {
      const Tensor& r = bufs_[static_cast<size_t>(ins.a)];  // [B, n, beta, k]
      FusedRecoverRaw(r.data(), bufs_[static_cast<size_t>(ins.b)].data(),
                      weights_[static_cast<size_t>(ins.w)][0], out.data(),
                      out.dim(0), out.dim(1), out.dim(2), r.dim(2),
                      out.dim(3));
      break;
    }
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
  const bool metrics = MetricsEnabled();
  if (metrics) {
    static Counter& runs =
        MetricsRegistry::Global().GetCounter("serve.plan.runs");
    runs.Add(1);
  }
  for (const Phase& phase : phases_) {
    const uint64_t start = metrics ? MonotonicNanos() : 0;
    for (size_t i = phase.begin; i < phase.end; ++i) Exec(instrs_[i], inputs);
    if (metrics && phase.hist != nullptr) {
      phase.hist->Record(MonotonicNanos() - start);
    }
  }
}

// ---------------------------------------------------------------------------
// PlanCompiler: schedule assembly
// ---------------------------------------------------------------------------

int32_t PlanCompiler::NewBuf(BufShape spec) {
  shapes_.push_back(spec);
  plan_.specs_.push_back(std::move(spec));
  return static_cast<int32_t>(plan_.specs_.size() - 1);
}

int32_t PlanCompiler::AddWeight(const autograd::Var& v) {
  // Dedup by source address (weights repeat across unrolled steps), then
  // snapshot the tensor: the plan owns its parameter values.
  const Tensor* key = &v.value();
  const auto it = weight_ids_.find(key);
  if (it != weight_ids_.end()) return it->second;
  plan_.weights_.push_back(v.value());
  plan_.packed_.emplace_back();
  const int32_t id = static_cast<int32_t>(plan_.weights_.size() - 1);
  weight_ids_[key] = id;
  return id;
}

void PlanCompiler::MaybePrepack(Instr& mm, const BufShape& os) {
  PackedGemmB& packed = plan_.packed_[static_cast<size_t>(mm.w)];
  const Tensor& w = plan_.weights_[static_cast<size_t>(mm.w)];
  if (w.rank() != 2) return;
  // Rows at batch 1; runtime batches only multiply the count, so viability
  // at compile time implies viability at every batch size.
  const int64_t rows = os.NumelPerBatch() / w.dim(1);
  if (!PrepackedGemmViable(rows, w.dim(0), w.dim(1))) return;
  if (packed.panels.empty()) packed = PackGemmWeight(w);
  mm.prepacked = true;
}

void PlanCompiler::EnsureWideScratch(int64_t numel_per_batch) {
  if (wide_scratch_[0] < 0) {
    for (int i = 0; i < 3; ++i) {
      wide_scratch_[i] = NewBuf({numel_per_batch, {}});
    }
    return;
  }
  // One set of flat buffers serves every basis site (the schedule is
  // sequential); grow them to the largest per-batch element count seen.
  for (int i = 0; i < 3; ++i) {
    BufShape& spec = plan_.specs_[static_cast<size_t>(wide_scratch_[i])];
    spec.mult = std::max(spec.mult, numel_per_batch);
    shapes_[static_cast<size_t>(wide_scratch_[i])] = spec;
  }
}

Instr& PlanCompiler::Emit(OpKind kind, int32_t out, BufShape shape) {
  ODF_CHECK_GE(out, 0);
  ODF_CHECK_EQ(shape.NumelPerBatch(),
               plan_.specs_[static_cast<size_t>(out)].NumelPerBatch())
      << "instruction output view must preserve the buffer's element count";
  shapes_[static_cast<size_t>(out)] = shape;
  Instr ins;
  ins.kind = kind;
  ins.out = out;
  ins.shape = std::move(shape);
  plan_.instrs_.push_back(std::move(ins));
  return plan_.instrs_.back();
}

void PlanCompiler::BeginPhase(const char* name) {
  if (!plan_.phases_.empty()) {
    plan_.phases_.back().end = plan_.instrs_.size();
  }
  ForwardPlan::Phase phase;
  phase.name = name;
  phase.begin = plan_.instrs_.size();
  phase.hist = &MetricsRegistry::Global().GetHistogram(
      std::string("serve.plan.") + name + "_seconds");
  plan_.phases_.push_back(phase);
}

void PlanCompiler::AddGraph(const std::shared_ptr<const GraphOperator>& op) {
  for (const auto& existing : plan_.graph_ops_) {
    if (existing.get() == op.get()) return;
  }
  plan_.graph_ops_.push_back(op);
}

const BufShape& PlanCompiler::ShapeOf(int32_t buf) const {
  return shapes_[static_cast<size_t>(buf)];
}

void PlanCompiler::Reshape(int32_t buf, BufShape shape) {
  Emit(OpKind::kReshape, buf, std::move(shape));
}

std::vector<int32_t>& PlanCompiler::Scratch(const void* key) {
  return scratch_[key];
}

// ---------------------------------------------------------------------------
// PlanCompiler: module lowering
// ---------------------------------------------------------------------------

int32_t PlanCompiler::EmitChebTaps(
    const std::shared_ptr<const GraphOperator>& op, int32_t x, int64_t order,
    int32_t taps) {
  if (order == 1) return x;  // ChebyshevStack returns its input verbatim
  const BufShape xs = ShapeOf(x);
  EnsureWideScratch(xs.NumelPerBatch());
  Instr& ins =
      Emit(OpKind::kChebBasis, taps,
           BufShape{xs.mult, {xs.tail[0], order * xs.tail[1]}});
  ins.a = x;
  ins.order = order;
  ins.graph = op;
  ins.srcs = {wide_scratch_[0], wide_scratch_[1], wide_scratch_[2]};
  AddGraph(op);
  return taps;
}

void PlanCompiler::EmitGraphApply(
    const std::shared_ptr<const GraphOperator>& op, int32_t x, int32_t out) {
  Instr& ins = Emit(OpKind::kGraphApply, out, ShapeOf(x));
  ins.a = x;
  ins.graph = op;
  AddGraph(op);
}

// Mirrors GraphBasis::Stack — see nn/graph_basis.cc for the tape ops. The
// tape's Sub(MulScalar(·, 2), prev2) recurrence combiner is replayed as
// kMulScalar(2) + kMulScalar(−1) + kAdd, which is bitwise the same sum
// (IEEE a − b ≡ a + (−1·b)); prev2 part buffers stay live for the final
// concat, so the negation lands in a dedicated scratch buffer.
int32_t PlanCompiler::EmitBasisTaps(const nn::GraphBasis& basis, int32_t x,
                                    int32_t taps) {
  if (basis.taps() == 1) return x;  // Stack returns its input verbatim
  if (basis.kind() == nn::GraphOpKind::kChebyshev &&
      basis.correlation_op() == nullptr) {
    // Single-component Chebyshev keeps the fused wide-layout kernel — the
    // exact legacy schedule, bit-identical to ChebyshevStack.
    return EmitChebTaps(basis.primary_op(), x, basis.order(), taps);
  }
  const BufShape xs = ShapeOf(x);
  ODF_CHECK_EQ(xs.tail.size(), 2u);
  const int64_t n = xs.tail[0];
  const int64_t f = xs.tail[1];
  const BufShape part_shape{xs.mult, {n, f}};
  const int64_t order = basis.order();
  // Keyed by the taps buffer: one basis serves call sites of different
  // feature widths (gate stack vs output head), which must not share parts.
  std::vector<int32_t>& s = basis_scratch_[taps];
  std::vector<int32_t> srcs;
  switch (basis.kind()) {
    case nn::GraphOpKind::kChebyshev: {
      // Fused main component ∥ correlation tail (taps 2..order; tap 1 is
      // the shared identity x), exactly the tape's part list.
      const int64_t tail = order - 1;
      if (s.empty()) {
        s.push_back(NewBuf({xs.mult, {n, order * f}}));  // 0: fused main
        for (int64_t i = 0; i <= tail; ++i) {
          s.push_back(NewBuf(part_shape));  // 1..tail: parts; last: −prev2
        }
      }
      EmitChebTaps(basis.primary_op(), x, order, s[0]);
      srcs.push_back(s[0]);
      const int32_t neg = s[static_cast<size_t>(tail) + 1];
      EmitGraphApply(basis.correlation_op(), x, s[1]);
      srcs.push_back(s[1]);
      int32_t prev2 = x;
      int32_t prev = s[1];
      for (int64_t i = 2; i <= tail; ++i) {
        const int32_t cur = s[static_cast<size_t>(i)];
        EmitGraphApply(basis.correlation_op(), prev, cur);
        Instr& twice = Emit(OpKind::kMulScalar, cur, part_shape);
        twice.a = cur;
        twice.scalar = 2.0f;
        Instr& flip = Emit(OpKind::kMulScalar, neg, part_shape);
        flip.a = prev2;
        flip.scalar = -1.0f;
        Instr& sub = Emit(OpKind::kAdd, cur, part_shape);
        sub.a = cur;
        sub.b = neg;
        srcs.push_back(cur);
        prev2 = prev;
        prev = cur;
      }
      break;
    }
    case nn::GraphOpKind::kDiffusion: {
      const int64_t powers = order - 1;
      if (s.empty()) {
        for (int64_t i = 0; i < 2 * powers; ++i) {
          s.push_back(NewBuf(part_shape));
        }
      }
      srcs.push_back(x);
      int32_t prev = x;
      for (int64_t k = 0; k < powers; ++k) {
        EmitGraphApply(basis.primary_op(), prev, s[static_cast<size_t>(k)]);
        prev = s[static_cast<size_t>(k)];
        srcs.push_back(prev);
      }
      prev = x;
      for (int64_t k = 0; k < powers; ++k) {
        const int32_t cur = s[static_cast<size_t>(powers + k)];
        EmitGraphApply(basis.secondary_op(), prev, cur);
        prev = cur;
        srcs.push_back(prev);
      }
      break;
    }
    case nn::GraphOpKind::kAdaptive: {
      // The adjacency is frozen at compile time (weights are snapshots):
      // softmax(relu(E_o·E_dᵀ)) computed with the tape's own kernels, then
      // wrapped dense so kGraphApply runs the same BatchMatMul the tape's
      // broadcast rank-2 BatchMatMul runs.
      std::shared_ptr<const GraphOperator>& a_op = adaptive_ops_[&basis];
      if (a_op == nullptr) {
        a_op = GraphOperator::Make(basis.AdaptiveAdjacency(),
                                   /*force_sparse=*/0);
      }
      const int64_t tail = order - 1;
      if (s.empty()) {
        for (int64_t i = 0; i <= tail; ++i) {
          s.push_back(NewBuf(part_shape));  // 0..tail−1: parts; tail: −prev2
        }
      }
      const int32_t neg = s[static_cast<size_t>(tail)];
      srcs.push_back(x);
      EmitGraphApply(a_op, x, s[0]);
      srcs.push_back(s[0]);
      int32_t prev2 = x;
      int32_t prev = s[0];
      for (int64_t i = 1; i < tail; ++i) {
        const int32_t cur = s[static_cast<size_t>(i)];
        EmitGraphApply(a_op, prev, cur);
        Instr& twice = Emit(OpKind::kMulScalar, cur, part_shape);
        twice.a = cur;
        twice.scalar = 2.0f;
        Instr& flip = Emit(OpKind::kMulScalar, neg, part_shape);
        flip.a = prev2;
        flip.scalar = -1.0f;
        Instr& sub = Emit(OpKind::kAdd, cur, part_shape);
        sub.a = cur;
        sub.b = neg;
        srcs.push_back(cur);
        prev2 = prev;
        prev = cur;
      }
      break;
    }
  }
  Instr& cat = Emit(OpKind::kConcatN, taps,
                    BufShape{xs.mult, {n, basis.taps() * f}});
  cat.srcs = std::move(srcs);
  cat.axis = 2;
  return taps;
}

int32_t PlanCompiler::EmitChebConv(const nn::ChebConv& conv, int32_t x,
                                   int32_t out) {
  const BufShape xs = ShapeOf(x);
  ODF_CHECK_EQ(xs.tail.size(), 2u);
  ODF_CHECK_EQ(xs.tail[1], conv.in_features_);
  const BufShape os{xs.mult, {xs.tail[0], conv.out_features_}};
  const nn::GraphBasis& basis = *conv.basis_;
  std::vector<int32_t>& s = Scratch(&conv);
  if (s.empty()) {
    s.push_back(basis.taps() > 1
                    ? NewBuf({xs.mult,
                              {xs.tail[0], basis.taps() * conv.in_features_}})
                    : -1);      // 0: basis tap stack
    s.push_back(NewBuf(os));    // 1: basis · theta
    s.push_back(NewBuf(os));    // 2: + bias (when no explicit out)
  }
  const int32_t taps = EmitBasisTaps(basis, x, s[0]);
  if (!conv.with_bias_) {
    const int32_t dst = out >= 0 ? out : s[1];
    Instr& mm = Emit(OpKind::kBatchMatMulW, dst, os);
    mm.a = taps;
    mm.w = AddWeight(conv.theta_);
    MaybePrepack(mm, os);
    return dst;
  }
  Instr& mm = Emit(OpKind::kBatchMatMulW, s[1], os);
  mm.a = taps;
  mm.w = AddWeight(conv.theta_);
  MaybePrepack(mm, os);
  const int32_t dst = out >= 0 ? out : s[2];
  Instr& bias = Emit(OpKind::kAddBiasW, dst, os);
  bias.a = s[1];
  bias.w = AddWeight(conv.bias_);
  ODF_CHECK_EQ(plan_.weights_[static_cast<size_t>(bias.w)].rank(), 1);
  return dst;
}

int32_t PlanCompiler::EmitLinear(const nn::Linear& linear, int32_t x,
                                 int32_t out) {
  const BufShape xs = ShapeOf(x);
  ODF_CHECK_EQ(xs.tail.size(), 1u);  // rank-2 call sites only
  ODF_CHECK_EQ(xs.tail[0], linear.in_features_);
  const BufShape os{xs.mult, {linear.out_features_}};
  std::vector<int32_t>& s = Scratch(&linear);
  if (s.empty()) {
    s.push_back(NewBuf(os));  // 0: x · W
    s.push_back(NewBuf(os));  // 1: + bias (when no explicit out)
  }
  if (!linear.with_bias_) {
    const int32_t dst = out >= 0 ? out : s[0];
    Instr& mm = Emit(OpKind::kMatMulW, dst, os);
    mm.a = x;
    mm.w = AddWeight(linear.weight_);
    MaybePrepack(mm, os);
    return dst;
  }
  Instr& mm = Emit(OpKind::kMatMulW, s[0], os);
  mm.a = x;
  mm.w = AddWeight(linear.weight_);
  MaybePrepack(mm, os);
  const int32_t dst = out >= 0 ? out : s[1];
  Instr& bias = Emit(OpKind::kAddBiasW, dst, os);
  bias.a = s[0];
  bias.w = AddWeight(linear.bias_);
  ODF_CHECK_EQ(plan_.weights_[static_cast<size_t>(bias.w)].rank(), 1);
  return dst;
}

// Mirrors GcGruCell::Step — see nn/gcgru.cc for the op sequence.
void PlanCompiler::EmitGcGruStep(const nn::GcGruCell& cell, int32_t x,
                                 int32_t h) {
  const nn::GraphBasis& basis = *cell.basis_;
  const int64_t n = basis.nodes();
  const int64_t f = cell.input_features_;
  const int64_t hid = cell.hidden_features_;
  const BufShape hx_shape{1, {n, hid + f}};
  const BufShape gates_shape{1, {n, 2 * hid}};
  const BufShape h_shape{1, {n, hid}};
  std::vector<int32_t>& s = Scratch(&cell);
  if (s.empty()) {
    s.push_back(NewBuf(hx_shape));  // 0: [h, x] / [r ⊙ h, x]
    s.push_back(basis.taps() > 1 ? NewBuf({1, {n, basis.taps() * (hid + f)}})
                                 : -1);  // 1: gate taps
    s.push_back(NewBuf(gates_shape));  // 2: taps · theta
    s.push_back(NewBuf(gates_shape));  // 3: + bias
    s.push_back(NewBuf(h_shape));      // 4: reset / r ⊙ h
    s.push_back(NewBuf(h_shape));      // 5: update / (1 − u) ⊙ h̃
    s.push_back(NewBuf(h_shape));      // 6: candidate
    s.push_back(NewBuf(h_shape));      // 7: u ⊙ h
  }
  {
    Instr& cat = Emit(OpKind::kConcat2, s[0], hx_shape);
    cat.a = h;
    cat.b = x;
    cat.axis = 2;
  }
  const int32_t taps = EmitBasisTaps(basis, s[0], s[1]);
  {
    Instr& mm = Emit(OpKind::kBatchMatMulW, s[2], gates_shape);
    mm.a = taps;
    mm.w = AddWeight(cell.gates_theta_);
    MaybePrepack(mm, gates_shape);
  }
  {
    Instr& bias = Emit(OpKind::kAddBiasW, s[3], gates_shape);
    bias.a = s[2];
    bias.w = AddWeight(cell.gates_bias_);
    ODF_CHECK_EQ(plan_.weights_[static_cast<size_t>(bias.w)].rank(), 1);
  }
  {
    Instr& slice = Emit(OpKind::kSlice, s[4], h_shape);
    slice.a = s[3];
    slice.axis = 2;
    slice.start = 0;
    slice.len = hid;
  }
  Emit(OpKind::kSigmoid, s[4], h_shape).a = s[4];
  {
    Instr& slice = Emit(OpKind::kSlice, s[5], h_shape);
    slice.a = s[3];
    slice.axis = 2;
    slice.start = hid;
    slice.len = hid;
  }
  Emit(OpKind::kSigmoid, s[5], h_shape).a = s[5];
  {
    Instr& mul = Emit(OpKind::kMul, s[4], h_shape);  // r ⊙ h
    mul.a = s[4];
    mul.b = h;
  }
  {
    Instr& cat = Emit(OpKind::kConcat2, s[0], hx_shape);  // [r ⊙ h, x]
    cat.a = s[4];
    cat.b = x;
    cat.axis = 2;
  }
  EmitChebConv(cell.candidate_conv_, s[0], s[6]);
  Emit(OpKind::kTanh, s[6], h_shape).a = s[6];
  {
    Instr& mul = Emit(OpKind::kMul, s[7], h_shape);  // u ⊙ h
    mul.a = s[5];
    mul.b = h;
  }
  {
    Instr& neg = Emit(OpKind::kMulScalar, s[5], h_shape);
    neg.a = s[5];
    neg.scalar = -1.0f;
  }
  {
    Instr& one = Emit(OpKind::kAddScalar, s[5], h_shape);
    one.a = s[5];
    one.scalar = 1.0f;
  }
  {
    Instr& mul = Emit(OpKind::kMul, s[5], h_shape);  // (1 − u) ⊙ h̃
    mul.a = s[5];
    mul.b = s[6];
  }
  {
    Instr& add = Emit(OpKind::kAdd, h, h_shape);  // next state, in place
    add.a = s[7];
    add.b = s[5];
  }
}

// Mirrors GruCell::Step — see nn/gru.cc for the op sequence.
void PlanCompiler::EmitGruStep(const nn::GruCell& cell, int32_t x,
                               int32_t h) {
  const int64_t f = cell.input_size_;
  const int64_t hid = cell.hidden_size_;
  const BufShape hx_shape{1, {hid + f}};
  const BufShape h_shape{1, {hid}};
  std::vector<int32_t>& s = Scratch(&cell);
  if (s.empty()) {
    s.push_back(NewBuf(hx_shape));  // 0: [h, x] / [r ⊙ h, x]
    s.push_back(NewBuf(h_shape));   // 1: z ⊙ h
  }
  {
    Instr& cat = Emit(OpKind::kConcat2, s[0], hx_shape);
    cat.a = h;
    cat.b = x;
    cat.axis = 1;
  }
  const int32_t r = EmitLinear(cell.reset_gate_, s[0], -1);
  Emit(OpKind::kSigmoid, r, h_shape).a = r;
  const int32_t z = EmitLinear(cell.update_gate_, s[0], -1);
  Emit(OpKind::kSigmoid, z, h_shape).a = z;
  {
    Instr& mul = Emit(OpKind::kMul, r, h_shape);  // r ⊙ h
    mul.a = r;
    mul.b = h;
  }
  {
    Instr& cat = Emit(OpKind::kConcat2, s[0], hx_shape);  // [r ⊙ h, x]
    cat.a = r;
    cat.b = x;
    cat.axis = 1;
  }
  const int32_t cand = EmitLinear(cell.candidate_, s[0], -1);
  Emit(OpKind::kTanh, cand, h_shape).a = cand;
  {
    Instr& mul = Emit(OpKind::kMul, s[1], h_shape);  // z ⊙ h
    mul.a = z;
    mul.b = h;
  }
  {
    Instr& neg = Emit(OpKind::kMulScalar, z, h_shape);
    neg.a = z;
    neg.scalar = -1.0f;
  }
  {
    Instr& one = Emit(OpKind::kAddScalar, z, h_shape);
    one.a = z;
    one.scalar = 1.0f;
  }
  {
    Instr& mul = Emit(OpKind::kMul, z, h_shape);  // (1 − z) ⊙ h̃
    mul.a = z;
    mul.b = cand;
  }
  {
    Instr& add = Emit(OpKind::kAdd, h, h_shape);  // next state, in place
    add.a = s[1];
    add.b = z;
  }
}

// Mirrors LuongAttention::Scores + ::Apply — see nn/attention.cc.
int32_t PlanCompiler::EmitAttention(const nn::LuongAttention& attention,
                                    int32_t decoder,
                                    const std::vector<int32_t>& encoder_copies) {
  const int64_t hid = attention.hidden_size_;
  const int64_t steps = static_cast<int64_t>(encoder_copies.size());
  const BufShape h_shape{1, {hid}};
  const BufShape one_shape{1, {1}};
  const BufShape scores_shape{1, {steps}};
  std::vector<int32_t>& s = Scratch(&attention);
  // Layout: 0 transformed; 1..steps per-step scores; steps+1 scores;
  // steps+2 softmax weights; steps+3 context; steps+4 weighted state;
  // steps+5 [context, decoder].
  if (s.empty()) {
    s.push_back(NewBuf(h_shape));
    for (int64_t t = 0; t < steps; ++t) s.push_back(NewBuf(one_shape));
    s.push_back(NewBuf(scores_shape));
    s.push_back(NewBuf(scores_shape));
    s.push_back(NewBuf(h_shape));
    s.push_back(NewBuf(h_shape));
    s.push_back(NewBuf({1, {2 * hid}}));
  }
  const int32_t scores = s[static_cast<size_t>(steps) + 1];
  const int32_t weights = s[static_cast<size_t>(steps) + 2];
  const int32_t context = s[static_cast<size_t>(steps) + 3];
  const int32_t weighted = s[static_cast<size_t>(steps) + 4];
  const int32_t cat = s[static_cast<size_t>(steps) + 5];
  for (int64_t t = 0; t < steps; ++t) {
    EmitLinear(attention.score_, encoder_copies[static_cast<size_t>(t)],
               s[0]);  // W_a e_t (no bias)
    {
      Instr& mul = Emit(OpKind::kMul, s[0], h_shape);
      mul.a = decoder;
      mul.b = s[0];
    }
    Instr& sum = Emit(OpKind::kSumKeep, s[static_cast<size_t>(t) + 1],
                      one_shape);
    sum.a = s[0];
    sum.axis = 1;
  }
  {
    Instr& cat_scores = Emit(OpKind::kConcatN, scores, scores_shape);
    cat_scores.axis = 1;
    for (int64_t t = 0; t < steps; ++t) {
      cat_scores.srcs.push_back(s[static_cast<size_t>(t) + 1]);
    }
  }
  Emit(OpKind::kSoftmax, weights, scores_shape).a = scores;
  Emit(OpKind::kZero, context, h_shape);
  for (int64_t t = 0; t < steps; ++t) {
    {
      Instr& slice = Emit(OpKind::kSlice, s[static_cast<size_t>(t) + 1],
                          one_shape);
      slice.a = weights;
      slice.axis = 1;
      slice.start = t;
      slice.len = 1;
    }
    {
      Instr& mul = Emit(OpKind::kMul, weighted, h_shape);  // a_t e_t
      mul.a = encoder_copies[static_cast<size_t>(t)];
      mul.b = s[static_cast<size_t>(t) + 1];
    }
    {
      Instr& add = Emit(OpKind::kAdd, context, h_shape);
      add.a = context;
      add.b = weighted;
    }
  }
  {
    Instr& combine = Emit(OpKind::kConcat2, cat, BufShape{1, {2 * hid}});
    combine.a = context;
    combine.b = decoder;
    combine.axis = 1;
  }
  const int32_t head = EmitLinear(attention.combine_, cat, -1);
  Emit(OpKind::kTanh, head, h_shape).a = head;
  return head;
}

// Mirrors AdvancedFramework::ApplyBranch; result lands in `out` shaped
// [B·slices, β, K].
void PlanCompiler::EmitBranch(const AdvancedFramework& model,
                              const AdvancedFramework::FactorBranch& branch,
                              int32_t in, int32_t out) {
  const int64_t k = model.num_buckets_;
  if (branch.fc != nullptr) {
    const BufShape xs = ShapeOf(in);
    Reshape(in, {xs.mult, {xs.tail[0] * xs.tail[1]}});
    const int32_t lin = EmitLinear(*branch.fc, in, out);
    ODF_CHECK_EQ(lin, out);
    Emit(OpKind::kTanh, out, ShapeOf(out)).a = out;
    Reshape(out, {xs.mult, {branch.output_nodes, k}});
    return;
  }
  int32_t x = in;
  for (size_t level = 0; level < branch.convs.size(); ++level) {
    x = EmitChebConv(*branch.convs[level], x, -1);
    Emit(OpKind::kRelu, x, ShapeOf(x)).a = x;
    const BufShape xs = ShapeOf(x);
    const std::vector<std::vector<int64_t>>& clusters =
        branch.clusters[level];
    const BufShape pooled_shape{
        xs.mult, {static_cast<int64_t>(clusters.size()), xs.tail[1]}};
    int32_t dst = out;
    if (level + 1 < branch.convs.size()) {
      std::vector<int32_t>& s = Scratch(&clusters);
      if (s.empty()) s.push_back(NewBuf(pooled_shape));
      dst = s[0];
    }
    Instr& pool = Emit(OpKind::kGraphPool, dst, pooled_shape);
    pool.a = x;
    pool.clusters = &clusters;
    pool.pool = model.config_.pool_kind;
    x = dst;
  }
  ODF_CHECK_EQ(x, out);
}

PlanCompiler::SeqState PlanCompiler::EmitGcGruEncoder(
    const nn::Seq2SeqGcGru& seq, const std::vector<int32_t>& inputs) {
  SeqState state;
  const size_t layers = seq.encoder_layers_.size();
  for (size_t l = 0; l < layers; ++l) {
    const nn::GcGruCell& cell = *seq.encoder_layers_[l];
    const BufShape h_shape{1, {cell.num_nodes(), cell.hidden_features_}};
    const int32_t h = NewBuf(h_shape);
    Emit(OpKind::kZero, h, h_shape);
    state.states.push_back(h);
  }
  for (int32_t x : inputs) {
    int32_t layer_input = x;
    for (size_t l = 0; l < layers; ++l) {
      EmitGcGruStep(*seq.encoder_layers_[l], layer_input, state.states[l]);
      layer_input = state.states[l];
    }
  }
  state.last_input = inputs.back();
  return state;
}

std::vector<int32_t> PlanCompiler::EmitGcGruDecoder(
    const nn::Seq2SeqGcGru& seq, const SeqState& state, int64_t horizon) {
  // The decoder starts from the encoder's final states; the tape copies the
  // state Vars, the plan simply keeps using the same buffers.
  const size_t layers = seq.decoder_layers_.size();
  const nn::ChebConv& head = *seq.output_head_;
  std::vector<int32_t> outputs;
  int32_t prev = state.last_input;
  for (int64_t j = 0; j < horizon; ++j) {
    int32_t layer_input = prev;
    for (size_t l = 0; l < layers; ++l) {
      EmitGcGruStep(*seq.decoder_layers_[l], layer_input, state.states[l]);
      layer_input = state.states[l];
    }
    const int32_t out =
        NewBuf({1, {head.num_nodes(), head.out_features_}});
    EmitChebConv(head, state.states.back(), out);
    outputs.push_back(out);
    prev = out;
  }
  return outputs;
}

PlanCompiler::SeqState PlanCompiler::EmitGruEncoder(
    const nn::Seq2SeqGru& seq, const std::vector<int32_t>& inputs) {
  SeqState state;
  const size_t layers = seq.encoder_layers_.size();
  for (size_t l = 0; l < layers; ++l) {
    const BufShape h_shape{1, {seq.encoder_layers_[l]->hidden_size_}};
    const int32_t h = NewBuf(h_shape);
    Emit(OpKind::kZero, h, h_shape);
    state.states.push_back(h);
  }
  const bool attended = seq.attention_ != nullptr;
  for (int32_t x : inputs) {
    int32_t layer_input = x;
    for (size_t l = 0; l < layers; ++l) {
      EmitGruStep(*seq.encoder_layers_[l], layer_input, state.states[l]);
      layer_input = state.states[l];
    }
    if (attended) {
      // Attention reads every step's top-layer state later; the state
      // buffer is overwritten each step, so keep a per-step copy.
      const BufShape h_shape{1, {seq.hidden_size_}};
      const int32_t copy = NewBuf(h_shape);
      Emit(OpKind::kCopy, copy, h_shape).a = state.states.back();
      state.encoder_copies.push_back(copy);
    }
  }
  state.last_input = inputs.back();
  return state;
}

std::vector<int32_t> PlanCompiler::EmitGruDecoder(const nn::Seq2SeqGru& seq,
                                                  const SeqState& state,
                                                  int64_t horizon) {
  const size_t layers = seq.decoder_layers_.size();
  std::vector<int32_t> outputs;
  int32_t prev = state.last_input;
  for (int64_t j = 0; j < horizon; ++j) {
    int32_t layer_input = prev;
    for (size_t l = 0; l < layers; ++l) {
      EmitGruStep(*seq.decoder_layers_[l], layer_input, state.states[l]);
      layer_input = state.states[l];
    }
    const int32_t head =
        seq.attention_ != nullptr
            ? EmitAttention(*seq.attention_, state.states.back(),
                            state.encoder_copies)
            : state.states.back();
    const int32_t out = NewBuf({1, {seq.feature_size_}});
    EmitLinear(*seq.output_proj_, head, out);
    outputs.push_back(out);
    prev = out;
  }
  return outputs;
}

// ---------------------------------------------------------------------------
// PlanCompiler: whole-model schedules
// ---------------------------------------------------------------------------

ForwardPlan PlanCompiler::Compile(const AdvancedFramework& model,
                                  int64_t history) {
  ODF_CHECK_GT(history, 0);
  PlanCompiler c;
  ForwardPlan& p = c.plan_;
  const int64_t n = model.num_origins_;
  const int64_t m = model.num_destinations_;
  const int64_t k = model.num_buckets_;
  const int64_t beta = model.rank_;
  p.history_ = history;
  p.input_tail_ = {n, m, k};

  // Mirrors AdvancedFramework::Run at inference (train=false: dropout is
  // the identity and never reaches the tape). The branches are stateless
  // per time step, so the plan stacks all `history` input slices along the
  // batch-slice axis and evaluates each branch ONCE at `history`× batch —
  // two branch evaluations total instead of 2·history, amortizing every
  // kernel launch. Each stacked slice accumulates exactly the sums its
  // per-step evaluation would, so the split-back sequence is bit-identical
  // to the per-step schedule.
  c.BeginPhase("factorize");
  const int32_t in_c = c.NewBuf({1, {m, n, k}});
  const int32_t big_r = c.NewBuf({history * n, {m, k}});
  const int32_t big_c = c.NewBuf({history * m, {n, k}});
  const int32_t big_rt = c.NewBuf({history * n, {beta, k}});
  const int32_t big_ct = c.NewBuf({history * m, {beta, k}});
  for (int64_t t = 0; t < history; ++t) {
    // R branch input: origin slices [B·N, N', K] on the destination graph,
    // stacked at block t.
    Instr& load = c.Emit(OpKind::kLoadInput, big_r, {history * n, {m, k}});
    load.input_index = static_cast<int32_t>(t);
    load.start = t * n * m * k;
    // C branch input: destination slices [B·N', N, K] on the origin graph.
    Instr& pload = c.Emit(OpKind::kLoadInputPermuted, in_c, {1, {m, n, k}});
    pload.input_index = static_cast<int32_t>(t);
    pload.perm = {0, 2, 1, 3};
    Instr& stack = c.Emit(OpKind::kStackRows, big_c, {history * m, {n, k}});
    stack.a = in_c;
    stack.start = t * m * n * k;
  }
  c.EmitBranch(model, model.r_branch_, big_r, big_rt);
  c.EmitBranch(model, model.c_branch_, big_c, big_ct);
  std::vector<int32_t> r_seq;
  std::vector<int32_t> c_seq;
  for (int64_t t = 0; t < history; ++t) {
    const int32_t rt = c.NewBuf({n, {beta, k}});
    Instr& rslice = c.Emit(OpKind::kSliceRows, rt, {n, {beta, k}});
    rslice.a = big_rt;
    rslice.start = t * n * beta * k;
    c.Reshape(rt, model.config_.use_gcgru
                      ? BufShape{1, {n, beta * k}}
                      : BufShape{1, {n * beta * k}});
    r_seq.push_back(rt);
    const int32_t ct = c.NewBuf({m, {beta, k}});
    Instr& cslice = c.Emit(OpKind::kSliceRows, ct, {m, {beta, k}});
    cslice.a = big_ct;
    cslice.start = t * m * beta * k;
    c.Reshape(ct, model.config_.use_gcgru
                      ? BufShape{1, {m, beta * k}}
                      : BufShape{1, {m * beta * k}});
    c_seq.push_back(ct);
  }

  std::vector<int32_t> r_outs;
  std::vector<int32_t> c_outs;
  if (model.config_.use_gcgru) {
    c.BeginPhase("encode");
    const SeqState r_state = c.EmitGcGruEncoder(*model.r_seq_gc_, r_seq);
    const SeqState c_state = c.EmitGcGruEncoder(*model.c_seq_gc_, c_seq);
    c.BeginPhase("decode");
    r_outs = c.EmitGcGruDecoder(*model.r_seq_gc_, r_state, model.horizon_);
    c_outs = c.EmitGcGruDecoder(*model.c_seq_gc_, c_state, model.horizon_);
  } else {
    c.BeginPhase("encode");
    const SeqState r_state = c.EmitGruEncoder(*model.r_seq_fc_, r_seq);
    const SeqState c_state = c.EmitGruEncoder(*model.c_seq_fc_, c_seq);
    c.BeginPhase("decode");
    r_outs = c.EmitGruDecoder(*model.r_seq_fc_, r_state, model.horizon_);
    c_outs = c.EmitGruDecoder(*model.c_seq_fc_, c_state, model.horizon_);
  }

  c.BeginPhase("recover");
  const int32_t c_perm = c.NewBuf({1, {beta, m, k}});
  const int32_t temperature = c.AddWeight(model.temperature_);
  for (int64_t j = 0; j < model.horizon_; ++j) {
    const int32_t rj = r_outs[static_cast<size_t>(j)];
    const int32_t cj = c_outs[static_cast<size_t>(j)];
    c.Reshape(rj, {1, {n, beta, k}});
    c.Reshape(cj, {1, {m, beta, k}});
    {
      Instr& perm = c.Emit(OpKind::kPermute, c_perm, {1, {beta, m, k}});
      perm.a = cj;
      perm.perm = {0, 2, 1, 3};
    }
    const int32_t pred = c.NewBuf({1, {n, m, k}});
    Instr& recover = c.Emit(OpKind::kRecover, pred, {1, {n, m, k}});
    recover.a = rj;
    recover.b = c_perm;
    recover.w = temperature;
    p.outputs_.push_back(pred);
  }
  p.phases_.back().end = p.instrs_.size();
  return std::move(c.plan_);
}

ForwardPlan PlanCompiler::Compile(const BasicFramework& model,
                                  int64_t history) {
  ODF_CHECK_GT(history, 0);
  PlanCompiler c;
  ForwardPlan& p = c.plan_;
  const int64_t n = model.num_origins_;
  const int64_t m = model.num_destinations_;
  const int64_t k = model.num_buckets_;
  const int64_t beta = model.config_.rank;
  const int64_t encode = model.config_.encode_dim;
  p.history_ = history;
  p.input_tail_ = {n, m, k};

  // Mirrors BasicFramework::Run at inference.
  c.BeginPhase("factorize");
  const int32_t in = c.NewBuf({1, {n * m * k}});
  std::vector<int32_t> r_seq;
  std::vector<int32_t> c_seq;
  for (int64_t t = 0; t < history; ++t) {
    c.Emit(OpKind::kLoadInput, in, {1, {n * m * k}}).input_index =
        static_cast<int32_t>(t);
    const int32_t re = c.NewBuf({1, {encode}});
    c.EmitLinear(model.encode_r_, in, re);
    c.Emit(OpKind::kTanh, re, {1, {encode}}).a = re;
    r_seq.push_back(re);
    const int32_t ce = c.NewBuf({1, {encode}});
    c.EmitLinear(model.encode_c_, in, ce);
    c.Emit(OpKind::kTanh, ce, {1, {encode}}).a = ce;
    c_seq.push_back(ce);
  }

  c.BeginPhase("encode");
  const SeqState r_state = c.EmitGruEncoder(model.seq_r_, r_seq);
  const SeqState c_state = c.EmitGruEncoder(model.seq_c_, c_seq);
  c.BeginPhase("decode");
  const std::vector<int32_t> r_outs =
      c.EmitGruDecoder(model.seq_r_, r_state, model.horizon_);
  const std::vector<int32_t> c_outs =
      c.EmitGruDecoder(model.seq_c_, c_state, model.horizon_);

  c.BeginPhase("recover");
  const int32_t temperature = c.AddWeight(model.temperature_);
  for (int64_t j = 0; j < model.horizon_; ++j) {
    const int32_t fr =
        c.EmitLinear(model.factor_r_, r_outs[static_cast<size_t>(j)], -1);
    c.Reshape(fr, {1, {n, beta, k}});
    const int32_t fc =
        c.EmitLinear(model.factor_c_, c_outs[static_cast<size_t>(j)], -1);
    c.Reshape(fc, {1, {beta, m, k}});
    const int32_t pred = c.NewBuf({1, {n, m, k}});
    Instr& recover = c.Emit(OpKind::kRecover, pred, {1, {n, m, k}});
    recover.a = fr;
    recover.b = fc;
    recover.w = temperature;
    p.outputs_.push_back(pred);
  }
  p.phases_.back().end = p.instrs_.size();
  return std::move(c.plan_);
}

}  // namespace odf::serve
