#ifndef ODF_AUTOGRAD_VAR_H_
#define ODF_AUTOGRAD_VAR_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace odf {
class GraphOperator;
}  // namespace odf

namespace odf::autograd {

class Var;

/// Attributes an op hands to an active Capture (autograd/capture.h) so the
/// serving-plan compiler can replay it; each op fills only what it uses.
struct OpAttrs {
  int64_t axis = 0;      // Concat, Slice, SumAxis
  int64_t start = 0;     // Slice
  int64_t len = 0;       // Slice
  int64_t order = 0;     // ChebyshevBasis
  int64_t pool = 0;      // GraphPool: the nn::PoolKind
  float scalar = 0.0f;   // AddScalar, MulScalar
  bool keepdim = false;  // SumAxis
  std::vector<int64_t> perm = {};                        // Permute
  std::shared_ptr<const GraphOperator> graph = nullptr;  // SpMM, Chebyshev
  std::shared_ptr<const std::vector<std::vector<int64_t>>> clusters =
      nullptr;  // GraphPool

  bool operator==(const OpAttrs&) const = default;
};

namespace internal {

/// One node of the dynamically-built computation tape.
struct Node {
  Tensor value;
  /// Gradient of the final scalar loss w.r.t. `value`; lazily allocated.
  Tensor grad;
  /// Name of the op that produced `value` (string literal; "leaf" for
  /// leaves). Labels the per-op backward spans in traces.
  const char* op = "leaf";
  bool grad_allocated = false;
  bool requires_grad = false;
  /// Parents in the dataflow graph (inputs of the op that produced `value`).
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates `grad` to the parents. Null for leaves.
  std::function<void(Node&)> backward;

  /// Adds `delta` into this node's gradient accumulator.
  void AccumulateGrad(const Tensor& delta);
};

}  // namespace internal

/// A differentiable tensor variable (reverse-mode autodiff handle).
///
/// `Var` has shared-reference semantics: copying a Var aliases the same
/// underlying node, exactly like framework tensors. Build computations with
/// the free functions in autograd/ops.h, then call `Backward()` on a scalar
/// result; gradients appear in each requires-grad leaf's `grad()`.
class Var {
 public:
  /// Leaf variable. `requires_grad` marks it as a trainable parameter /
  /// gradient target.
  explicit Var(Tensor value, bool requires_grad = false);

  /// Non-differentiable constant leaf (convenience).
  static Var Constant(Tensor value) { return Var(std::move(value), false); }

  /// Constant leaves whose axis 0 carries the batch: the model's input
  /// tensor `index` of a Batch, and a zero-filled state (recurrent initial
  /// states). On the tape both are plain constants; a Capture records them
  /// as per-call values, which is how a compiled plan tells its inputs and
  /// batch-sized zeros apart from model constants.
  static Var BatchInput(Tensor value, int64_t index);
  static Var BatchZeros(Shape shape);

  /// Current value.
  const Tensor& value() const { return node_->value; }

  /// Accumulated gradient. Zero tensor if backward has not reached this
  /// node (or it does not require grad).
  const Tensor& grad() const;

  bool requires_grad() const { return node_->requires_grad; }

  const Shape& shape() const { return node_->value.shape(); }
  int64_t dim(int64_t axis) const { return node_->value.dim(axis); }
  int64_t rank() const { return node_->value.rank(); }

  /// Clears this node's gradient accumulator.
  void ZeroGrad();

  /// Overwrites the value in place (optimizer step on a leaf). Must not be
  /// called on non-leaf nodes.
  void SetValue(Tensor value);

  /// Runs reverse-mode differentiation from this node. The node must hold a
  /// single element (a scalar loss); its gradient is seeded with 1.
  void Backward();

  /// Internal: wraps an op-result node.
  explicit Var(std::shared_ptr<internal::Node> node)
      : node_(std::move(node)) {}

  /// Internal: the underlying tape node.
  const std::shared_ptr<internal::Node>& node() const { return node_; }

 private:
  std::shared_ptr<internal::Node> node_;
};

namespace internal {

/// Creates an op-result Var named `op` (a string literal, used to label the
/// op's forward/backward trace spans). `parents` are the inputs, `backward`
/// propagates the node's gradient to them. The result requires grad iff any
/// parent does; if none do, the backward closure is dropped (no tape is
/// built). An active Capture records the op with `attrs`.
Var MakeOpVar(const char* op, Tensor value, std::vector<Var> parents,
              std::function<void(Node&)> backward,
              const OpAttrs& attrs = {});

}  // namespace internal

}  // namespace odf::autograd

#endif  // ODF_AUTOGRAD_VAR_H_
