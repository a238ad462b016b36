#include "autograd/var.h"

#include <unordered_set>

#include "autograd/capture.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace odf::autograd {

namespace internal {

void Node::AccumulateGrad(const Tensor& delta) {
  ODF_CHECK(delta.shape() == value.shape())
      << "grad shape " << delta.shape().ToString() << " vs value "
      << value.shape().ToString();
  if (!grad_allocated) {
    grad = delta;
    grad_allocated = true;
    return;
  }
  float* g = grad.data();
  const float* d = delta.data();
  const int64_t n = grad.numel();
  for (int64_t i = 0; i < n; ++i) g[i] += d[i];
}

Var MakeOpVar(const char* op, Tensor value, std::vector<Var> parents,
              std::function<void(Node&)> backward, const OpAttrs& attrs) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op = op;
  if (MetricsEnabled()) {
    static Counter& nodes =
        MetricsRegistry::Global().GetCounter("autograd.tape_nodes");
    nodes.Add(1);
  }
  bool any_grad = false;
  for (const Var& p : parents) any_grad = any_grad || p.requires_grad();
  node->requires_grad = any_grad;
  if (any_grad) {
    node->parents.reserve(parents.size());
    for (const Var& p : parents) node->parents.push_back(p.node());
    node->backward = std::move(backward);
  }
  if (Capture* capture = Capture::Active()) {
    capture->RecordOp(node, parents, attrs);
  }
  return Var(std::move(node));
}

}  // namespace internal

Var::Var(Tensor value, bool requires_grad) {
  node_ = std::make_shared<internal::Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Var Var::BatchInput(Tensor value, int64_t index) {
  Var v(std::move(value), false);
  if (Capture* capture = Capture::Active()) {
    capture->RecordBatchLeaf(v.node(), "BatchInput", index);
  }
  return v;
}

Var Var::BatchZeros(Shape shape) {
  Capture* capture = Capture::Active();
  Var v(capture != nullptr ? Tensor::ShapeOnly(std::move(shape))
                           : Tensor(std::move(shape)),
        false);
  if (capture != nullptr) capture->RecordBatchLeaf(v.node(), "BatchZeros", -1);
  return v;
}

const Tensor& Var::grad() const {
  if (!node_->grad_allocated) {
    // Lazily materialize a zero gradient so callers can always read it.
    node_->grad = Tensor(node_->value.shape());
    node_->grad_allocated = true;
  }
  return node_->grad;
}

void Var::ZeroGrad() {
  node_->grad_allocated = false;
  node_->grad = Tensor();
}

void Var::SetValue(Tensor value) {
  ODF_CHECK(node_->parents.empty()) << "SetValue on a non-leaf Var";
  ODF_CHECK(value.shape() == node_->value.shape());
  node_->value = std::move(value);
}

void Var::Backward() {
  ODF_CHECK_EQ(node_->value.numel(), 1)
      << "Backward() must start from a scalar";
  // Topological order via iterative DFS.
  std::vector<internal::Node*> order;
  std::unordered_set<internal::Node*> visited;
  struct Frame {
    internal::Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (node_->requires_grad) stack.push_back({node_.get(), 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent == 0) {
      if (visited.count(frame.node) != 0) {
        stack.pop_back();
        continue;
      }
      visited.insert(frame.node);
    }
    if (frame.next_parent < frame.node->parents.size()) {
      internal::Node* parent =
          frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && visited.count(parent) == 0) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  node_->AccumulateGrad(Tensor::Ones(node_->value.shape()));
  ODF_TRACE_SCOPE("autograd/", "Backward", "bwd");
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* node = *it;
    if (node->backward && node->grad_allocated) {
      TraceScope span("bwd/", node->op, "bwd");
      node->backward(*node);
    }
  }
  if (MetricsEnabled()) {
    static Counter& backwards =
        MetricsRegistry::Global().GetCounter("autograd.backwards");
    backwards.Add(1);
  }
}

}  // namespace odf::autograd
