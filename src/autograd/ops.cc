#include "autograd/ops.h"

#include <cmath>

#include "autograd/capture.h"

#include "util/trace.h"

namespace odf::autograd {

namespace {

using internal::MakeOpVar;
using internal::Node;
using internal::SkipKernel;

/// Applies the n×n matrix `m` along axis `axis` of `x`:
/// y[..., r, ...] = Σ_j m[r, j] · x[..., j, ...].
Tensor ApplyMatrixAlongAxis(const Tensor& m, const Tensor& x, int64_t axis) {
  ODF_CHECK_EQ(m.rank(), 2);
  if (axis < 0) axis += x.rank();
  const int64_t n = x.dim(axis);
  ODF_CHECK_EQ(m.dim(0), n);
  ODF_CHECK_EQ(m.dim(1), n);
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= x.dim(d);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < x.rank(); ++d) inner *= x.dim(d);
  Tensor y(x.shape());
  for (int64_t o = 0; o < outer; ++o) {
    const float* xo = x.data() + o * n * inner;
    float* yo = y.data() + o * n * inner;
    for (int64_t r = 0; r < n; ++r) {
      float* yrow = yo + r * inner;
      const float* mrow = m.data() + r * n;
      for (int64_t j = 0; j < n; ++j) {
        const float w = mrow[j];
        if (w == 0.0f) continue;
        const float* xrow = xo + j * inner;
        for (int64_t i = 0; i < inner; ++i) yrow[i] += w * xrow[i];
      }
    }
  }
  return y;
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  ODF_TRACE_SCOPE("fwd/", "Add", "fwd");
  Tensor out = SkipKernel(a, b)
                   ? Tensor::ShapeOnly(BroadcastShape(a.shape(), b.shape()))
                   : odf::Add(a.value(), b.value());
  return MakeOpVar("Add", std::move(out), {a, b}, [](Node& node) {
    if (node.parents[0]->requires_grad) {
      node.parents[0]->AccumulateGrad(
          ReduceToShape(node.grad, node.parents[0]->value.shape()));
    }
    if (node.parents[1]->requires_grad) {
      node.parents[1]->AccumulateGrad(
          ReduceToShape(node.grad, node.parents[1]->value.shape()));
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  ODF_TRACE_SCOPE("fwd/", "Sub", "fwd");
  Tensor out = SkipKernel(a, b)
                   ? Tensor::ShapeOnly(BroadcastShape(a.shape(), b.shape()))
                   : odf::Sub(a.value(), b.value());
  return MakeOpVar("Sub", std::move(out), {a, b}, [](Node& node) {
    if (node.parents[0]->requires_grad) {
      node.parents[0]->AccumulateGrad(
          ReduceToShape(node.grad, node.parents[0]->value.shape()));
    }
    if (node.parents[1]->requires_grad) {
      node.parents[1]->AccumulateGrad(
          ReduceToShape(odf::Neg(node.grad), node.parents[1]->value.shape()));
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  ODF_TRACE_SCOPE("fwd/", "Mul", "fwd");
  Tensor out = SkipKernel(a, b)
                   ? Tensor::ShapeOnly(BroadcastShape(a.shape(), b.shape()))
                   : odf::Mul(a.value(), b.value());
  return MakeOpVar("Mul", std::move(out), {a, b}, [](Node& node) {
    if (node.parents[0]->requires_grad) {
      node.parents[0]->AccumulateGrad(
          ReduceToShape(odf::Mul(node.grad, node.parents[1]->value),
                        node.parents[0]->value.shape()));
    }
    if (node.parents[1]->requires_grad) {
      node.parents[1]->AccumulateGrad(
          ReduceToShape(odf::Mul(node.grad, node.parents[0]->value),
                        node.parents[1]->value.shape()));
    }
  });
}

Var AddScalar(const Var& a, float s) {
  ODF_TRACE_SCOPE("fwd/", "AddScalar", "fwd");
  Tensor out = SkipKernel(a) ? Tensor::ShapeOnly(a.shape())
                             : odf::AddScalar(a.value(), s);
  return MakeOpVar(
      "AddScalar", std::move(out), {a},
      [](Node& node) { node.parents[0]->AccumulateGrad(node.grad); },
      {.scalar = s});
}

Var MulScalar(const Var& a, float s) {
  ODF_TRACE_SCOPE("fwd/", "MulScalar", "fwd");
  Tensor out = SkipKernel(a) ? Tensor::ShapeOnly(a.shape())
                             : odf::MulScalar(a.value(), s);
  return MakeOpVar(
      "MulScalar", std::move(out), {a},
      [s](Node& node) {
        node.parents[0]->AccumulateGrad(odf::MulScalar(node.grad, s));
      },
      {.scalar = s});
}

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

Var Square(const Var& a) { return Mul(a, a); }

Var MatMul(const Var& a, const Var& b) {
  ODF_TRACE_SCOPE("fwd/", "MatMul", "fwd");
  Tensor out = SkipKernel(a, b)
                   ? Tensor::ShapeOnly(Shape({a.dim(0), b.dim(1)}))
                   : odf::MatMul(a.value(), b.value());
  return MakeOpVar("MatMul", std::move(out), {a, b}, [](Node& node) {
    const Tensor& av = node.parents[0]->value;
    const Tensor& bv = node.parents[1]->value;
    if (node.parents[0]->requires_grad) {
      node.parents[0]->AccumulateGrad(
          odf::MatMul(node.grad, Transpose2D(bv)));
    }
    if (node.parents[1]->requires_grad) {
      node.parents[1]->AccumulateGrad(
          odf::MatMul(Transpose2D(av), node.grad));
    }
  });
}

Var BatchMatMul(const Var& a, const Var& b) {
  ODF_TRACE_SCOPE("fwd/", "BatchMatMul", "fwd");
  Tensor out;
  if (!SkipKernel(a, b)) {
    out = odf::BatchMatMul(a.value(), b.value());
  } else if (a.rank() == 2 && b.rank() == 2) {
    out = Tensor::ShapeOnly(Shape({a.dim(0), b.dim(1)}));
  } else {
    out = Tensor::ShapeOnly(Shape(
        {a.rank() == 3 ? a.dim(0) : b.dim(0), a.dim(-2), b.dim(-1)}));
  }
  return MakeOpVar("BatchMatMul", std::move(out), {a, b}, [](Node& node) {
    const Tensor& av = node.parents[0]->value;
    const Tensor& bv = node.parents[1]->value;
    if (node.parents[0]->requires_grad) {
      Tensor da = odf::BatchMatMul(node.grad, odf::TransposeLast2(bv));
      if (av.rank() == 2) da = odf::Sum(da, 0, /*keepdim=*/false);
      node.parents[0]->AccumulateGrad(da);
    }
    if (node.parents[1]->requires_grad) {
      Tensor db = odf::BatchMatMul(odf::TransposeLast2(av), node.grad);
      if (bv.rank() == 2) db = odf::Sum(db, 0, /*keepdim=*/false);
      node.parents[1]->AccumulateGrad(db);
    }
  });
}

Var SpMM(std::shared_ptr<const GraphOperator> op, const Var& x) {
  ODF_TRACE_SCOPE("fwd/", "SpMM", "fwd");
  ODF_CHECK(x.rank() == 2 || x.rank() == 3);
  ODF_CHECK_EQ(x.dim(x.rank() - 2), op->nodes());
  Tensor out = SkipKernel(x) ? Tensor::ShapeOnly(x.shape())
                             : odf::GraphApply(*op, x.value());
  return MakeOpVar(
      "SpMM", std::move(out), {x},
      [op](Node& node) {
        node.parents[0]->AccumulateGrad(
            odf::GraphApply(*op, node.grad, /*transpose=*/true));
      },
      {.graph = op});
}

Var ChebyshevBasis(std::shared_ptr<const GraphOperator> op, const Var& x,
                   int64_t order) {
  ODF_TRACE_SCOPE("fwd/", "ChebyshevBasis", "fwd");
  ODF_CHECK_EQ(x.rank(), 3);
  ODF_CHECK_EQ(x.dim(1), op->nodes());
  Tensor out =
      SkipKernel(x)
          ? Tensor::ShapeOnly(Shape({x.dim(0), x.dim(1), order * x.dim(2)}))
          : odf::ChebyshevBasis(*op, x.value(), order);
  return MakeOpVar(
      "ChebyshevBasis", std::move(out), {x},
      [op, order](Node& node) {
        node.parents[0]->AccumulateGrad(
            odf::ChebyshevBasisGrad(*op, node.grad, order));
      },
      {.order = order, .graph = op});
}

Var Reshape(const Var& a, std::vector<int64_t> dims) {
  ODF_TRACE_SCOPE("fwd/", "Reshape", "fwd");
  Tensor out = SkipKernel(a) ? Tensor::ShapeOnly(Shape(std::move(dims)))
                             : a.value().Reshape(std::move(dims));
  return MakeOpVar("Reshape", std::move(out), {a}, [](Node& node) {
    node.parents[0]->AccumulateGrad(
        node.grad.Reshape(node.parents[0]->value.shape().dims()));
  });
}

Var Concat(const std::vector<Var>& parts, int64_t axis) {
  ODF_TRACE_SCOPE("fwd/", "Concat", "fwd");
  ODF_CHECK(!parts.empty());
  const int64_t resolved =
      axis < 0 ? axis + parts.front().rank() : axis;
  Tensor out;
  if (SkipKernel(parts)) {
    std::vector<int64_t> dims = parts.front().shape().dims();
    for (size_t i = 1; i < parts.size(); ++i) {
      dims[static_cast<size_t>(resolved)] += parts[i].dim(resolved);
    }
    out = Tensor::ShapeOnly(Shape(std::move(dims)));
  } else {
    std::vector<Tensor> values;
    values.reserve(parts.size());
    for (const Var& p : parts) values.push_back(p.value());
    out = odf::Concat(values, resolved);
  }
  return MakeOpVar("Concat", std::move(out), parts, [resolved](Node& node) {
    int64_t offset = 0;
    for (auto& parent : node.parents) {
      const int64_t len = parent->value.dim(resolved);
      if (parent->requires_grad) {
        parent->AccumulateGrad(
            odf::Slice(node.grad, resolved, offset, len));
      }
      offset += len;
    }
  }, {.axis = resolved});
}

Var Slice(const Var& a, int64_t axis, int64_t start, int64_t len) {
  ODF_TRACE_SCOPE("fwd/", "Slice", "fwd");
  const int64_t resolved = axis < 0 ? axis + a.rank() : axis;
  Tensor out;
  if (SkipKernel(a)) {
    std::vector<int64_t> dims = a.shape().dims();
    dims[static_cast<size_t>(resolved)] = len;
    out = Tensor::ShapeOnly(Shape(std::move(dims)));
  } else {
    out = odf::Slice(a.value(), resolved, start, len);
  }
  return MakeOpVar("Slice", std::move(out), {a}, [resolved, start, len](Node& node) {
    const Tensor& pv = node.parents[0]->value;
    Tensor grad(pv.shape());
    int64_t outer = 1;
    for (int64_t d = 0; d < resolved; ++d) outer *= pv.dim(d);
    int64_t inner = 1;
    for (int64_t d = resolved + 1; d < pv.rank(); ++d) inner *= pv.dim(d);
    const int64_t dst_row = pv.dim(resolved) * inner;
    const int64_t src_row = len * inner;
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = node.grad.data() + o * src_row;
      float* dst = grad.data() + o * dst_row + start * inner;
      std::copy(src, src + src_row, dst);
    }
    node.parents[0]->AccumulateGrad(grad);
  }, {.axis = resolved, .start = start, .len = len});
}

Var TransposeLast2(const Var& a) {
  ODF_TRACE_SCOPE("fwd/", "TransposeLast2", "fwd");
  return MakeOpVar("TransposeLast2", odf::TransposeLast2(a.value()), {a}, [](Node& node) {
    node.parents[0]->AccumulateGrad(odf::TransposeLast2(node.grad));
  });
}

Var Permute(const Var& a, const std::vector<int64_t>& perm) {
  ODF_TRACE_SCOPE("fwd/", "Permute", "fwd");
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  Tensor out;
  if (SkipKernel(a)) {
    std::vector<int64_t> dims(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) dims[i] = a.dim(perm[i]);
    out = Tensor::ShapeOnly(Shape(std::move(dims)));
  } else {
    out = odf::Permute(a.value(), perm);
  }
  return MakeOpVar(
      "Permute", std::move(out), {a},
      [inverse](Node& node) {
        node.parents[0]->AccumulateGrad(odf::Permute(node.grad, inverse));
      },
      {.perm = perm});
}

Var Sigmoid(const Var& a) {
  ODF_TRACE_SCOPE("fwd/", "Sigmoid", "fwd");
  Tensor out = SkipKernel(a) ? Tensor::ShapeOnly(a.shape())
                             : odf::Sigmoid(a.value());
  return MakeOpVar("Sigmoid", std::move(out), {a}, [](Node& node) {
    Tensor d(node.value.shape());
    const int64_t n = node.value.numel();
    for (int64_t i = 0; i < n; ++i) {
      const float y = node.value[i];
      d[i] = node.grad[i] * y * (1.0f - y);
    }
    node.parents[0]->AccumulateGrad(d);
  });
}

Var Tanh(const Var& a) {
  ODF_TRACE_SCOPE("fwd/", "Tanh", "fwd");
  Tensor out = SkipKernel(a) ? Tensor::ShapeOnly(a.shape())
                             : odf::Tanh(a.value());
  return MakeOpVar("Tanh", std::move(out), {a}, [](Node& node) {
    Tensor d(node.value.shape());
    const int64_t n = node.value.numel();
    for (int64_t i = 0; i < n; ++i) {
      const float y = node.value[i];
      d[i] = node.grad[i] * (1.0f - y * y);
    }
    node.parents[0]->AccumulateGrad(d);
  });
}

Var Relu(const Var& a) {
  ODF_TRACE_SCOPE("fwd/", "Relu", "fwd");
  Tensor out = SkipKernel(a) ? Tensor::ShapeOnly(a.shape())
                             : odf::Relu(a.value());
  return MakeOpVar("Relu", std::move(out), {a}, [](Node& node) {
    const Tensor& x = node.parents[0]->value;
    Tensor d(x.shape());
    const int64_t n = x.numel();
    for (int64_t i = 0; i < n; ++i) {
      d[i] = x[i] > 0 ? node.grad[i] : 0.0f;
    }
    node.parents[0]->AccumulateGrad(d);
  });
}

Var Exp(const Var& a) {
  ODF_TRACE_SCOPE("fwd/", "Exp", "fwd");
  Tensor out = odf::Exp(a.value());
  return MakeOpVar("Exp", std::move(out), {a}, [](Node& node) {
    node.parents[0]->AccumulateGrad(odf::Mul(node.grad, node.value));
  });
}

Var LogEps(const Var& a, float eps) {
  ODF_TRACE_SCOPE("fwd/", "LogEps", "fwd");
  Tensor out = odf::Log(odf::AddScalar(a.value(), eps));
  return MakeOpVar("LogEps", std::move(out), {a}, [eps](Node& node) {
    const Tensor& x = node.parents[0]->value;
    Tensor d(x.shape());
    const int64_t n = x.numel();
    for (int64_t i = 0; i < n; ++i) d[i] = node.grad[i] / (x[i] + eps);
    node.parents[0]->AccumulateGrad(d);
  });
}

Var SoftmaxLastDim(const Var& a) {
  ODF_TRACE_SCOPE("fwd/", "SoftmaxLastDim", "fwd");
  Tensor out = SkipKernel(a) ? Tensor::ShapeOnly(a.shape())
                             : odf::SoftmaxLastDim(a.value());
  return MakeOpVar("SoftmaxLastDim", std::move(out), {a}, [](Node& node) {
    // dx = y ⊙ (g − Σ_last(g ⊙ y)).
    const Tensor gy = odf::Mul(node.grad, node.value);
    const Tensor sum = odf::Sum(gy, -1, /*keepdim=*/true);
    node.parents[0]->AccumulateGrad(
        odf::Mul(node.value, odf::Sub(node.grad, sum)));
  });
}

Var FusedRecover(const Var& r, const Var& c, const Var& temperature) {
  ODF_TRACE_SCOPE("fwd/", "FusedRecover", "fwd");
  ODF_CHECK_EQ(temperature.value().numel(), 1);
  const float tau = temperature.value()[0];
  Tensor out =
      SkipKernel(r, c, temperature)
          ? Tensor::ShapeOnly(Shape({r.dim(0), r.dim(1), c.dim(2), r.dim(3)}))
          : odf::FusedRecover(r.value(), c.value(), tau);
  return MakeOpVar(
      "FusedRecover", std::move(out), {r, c, temperature},
      [tau](Node& node) {
        const Tensor& rv = node.parents[0]->value;
        const Tensor& cv = node.parents[1]->value;
        Tensor dr(rv.shape());
        Tensor dc(cv.shape());
        const float dtau = odf::FusedRecoverGrad(rv, cv, tau, node.value,
                                                 node.grad, &dr, &dc);
        node.parents[0]->AccumulateGrad(dr);
        node.parents[1]->AccumulateGrad(dc);
        node.parents[2]->AccumulateGrad(
            Tensor::Full(node.parents[2]->value.shape(), dtau));
      });
}

Var SumAll(const Var& a) {
  ODF_TRACE_SCOPE("fwd/", "SumAll", "fwd");
  return MakeOpVar("SumAll", odf::SumAll(a.value()), {a}, [](Node& node) {
    node.parents[0]->AccumulateGrad(
        Tensor::Full(node.parents[0]->value.shape(), node.grad[0]));
  });
}

Var MeanAll(const Var& a) {
  ODF_TRACE_SCOPE("fwd/", "MeanAll", "fwd");
  const float inv = 1.0f / static_cast<float>(a.value().numel());
  return MakeOpVar("MeanAll", odf::MeanAll(a.value()), {a}, [inv](Node& node) {
    node.parents[0]->AccumulateGrad(Tensor::Full(
        node.parents[0]->value.shape(), node.grad[0] * inv));
  });
}

Var SumAxis(const Var& a, int64_t axis, bool keepdim) {
  ODF_TRACE_SCOPE("fwd/", "SumAxis", "fwd");
  const int64_t resolved = axis < 0 ? axis + a.rank() : axis;
  Tensor out;
  if (SkipKernel(a)) {
    std::vector<int64_t> dims = a.shape().dims();
    if (keepdim) {
      dims[static_cast<size_t>(resolved)] = 1;
    } else {
      dims.erase(dims.begin() + resolved);
    }
    out = Tensor::ShapeOnly(Shape(std::move(dims)));
  } else {
    out = odf::Sum(a.value(), resolved, keepdim);
  }
  return MakeOpVar("SumAxis", std::move(out), {a}, [resolved](Node& node) {
    const Tensor& pv = node.parents[0]->value;
    Tensor grad(pv.shape());
    int64_t outer = 1;
    for (int64_t d = 0; d < resolved; ++d) outer *= pv.dim(d);
    const int64_t mid = pv.dim(resolved);
    int64_t inner = 1;
    for (int64_t d = resolved + 1; d < pv.rank(); ++d) inner *= pv.dim(d);
    // The reduced gradient has outer*inner elements regardless of keepdim.
    for (int64_t o = 0; o < outer; ++o) {
      const float* g = node.grad.data() + o * inner;
      for (int64_t m = 0; m < mid; ++m) {
        float* dst = grad.data() + (o * mid + m) * inner;
        for (int64_t i = 0; i < inner; ++i) dst[i] = g[i];
      }
    }
    node.parents[0]->AccumulateGrad(grad);
  }, {.axis = resolved, .keepdim = keepdim});
}

Var Dropout(const Var& a, float p, bool train, Rng& rng) {
  ODF_TRACE_SCOPE("fwd/", "Dropout", "fwd");
  if (!train || p <= 0.0f) return a;
  ODF_CHECK_LT(p, 1.0f);
  const float scale = 1.0f / (1.0f - p);
  Tensor mask(a.shape());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.Bernoulli(p) ? 0.0f : scale;
  }
  Tensor out = odf::Mul(a.value(), mask);
  return MakeOpVar("Dropout", std::move(out), {a}, [mask](Node& node) {
    node.parents[0]->AccumulateGrad(odf::Mul(node.grad, mask));
  });
}

Var MaskedSquaredError(const Var& pred, const Tensor& target,
                       const Tensor& mask, float normalizer) {
  ODF_TRACE_SCOPE("fwd/", "MaskedSquaredError", "fwd");
  ODF_CHECK(pred.shape() == target.shape());
  ODF_CHECK(pred.shape() == mask.shape());
  ODF_CHECK_GT(normalizer, 0.0f);
  const Tensor& pv = pred.value();
  double total = 0;
  for (int64_t i = 0; i < pv.numel(); ++i) {
    const double diff = pv[i] - target[i];
    total += mask[i] * diff * diff;
  }
  Tensor out = Tensor::Scalar(static_cast<float>(total / normalizer));
  return MakeOpVar("MaskedSquaredError", std::move(out), {pred},
                   [target, mask, normalizer](Node& node) {
                     const Tensor& pv = node.parents[0]->value;
                     Tensor d(pv.shape());
                     const float g = node.grad[0];
                     for (int64_t i = 0; i < pv.numel(); ++i) {
                       d[i] = g * 2.0f * mask[i] * (pv[i] - target[i]) /
                              normalizer;
                     }
                     node.parents[0]->AccumulateGrad(d);
                   });
}

Var FrobeniusSquared(const Var& a) {
  ODF_TRACE_SCOPE("fwd/", "FrobeniusSquared", "fwd");
  Tensor out = Tensor::Scalar(SquaredNorm(a.value()));
  return MakeOpVar("FrobeniusSquared", std::move(out), {a}, [](Node& node) {
    node.parents[0]->AccumulateGrad(odf::MulScalar(
        node.parents[0]->value, 2.0f * node.grad[0]));
  });
}

Var DirichletEnergy(const Var& x, const Tensor& laplacian,
                    int64_t node_axis) {
  ODF_TRACE_SCOPE("fwd/", "DirichletEnergy", "fwd");
  const int64_t axis = node_axis < 0 ? node_axis + x.rank() : node_axis;
  const Tensor lx = ApplyMatrixAlongAxis(laplacian, x.value(), axis);
  Tensor out = odf::SumAll(odf::Mul(x.value(), lx));
  // Gradient (symmetric L): d/dx trace(xᵀLx) = 2 L x.
  return MakeOpVar("DirichletEnergy", std::move(out), {x}, [laplacian, axis](Node& node) {
    Tensor d = ApplyMatrixAlongAxis(laplacian, node.parents[0]->value, axis);
    node.parents[0]->AccumulateGrad(
        odf::MulScalar(d, 2.0f * node.grad[0]));
  });
}

}  // namespace odf::autograd
