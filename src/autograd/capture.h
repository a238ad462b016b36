#ifndef ODF_AUTOGRAD_CAPTURE_H_
#define ODF_AUTOGRAD_CAPTURE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "autograd/var.h"

namespace odf::autograd {

/// One op of a captured forward, in execution order.
struct CapturedOp {
  /// The ag op name ("Add", "ChebyshevBasis", …) or a leaf kind:
  /// "Parameter" (requires-grad leaf), "Constant", "BatchInput" or
  /// "BatchZeros".
  const char* op = "";
  std::vector<int32_t> parents;  // ids of earlier ops
  /// The value depends on the batch: a batch leaf or any op downstream of
  /// one. Such an op records its shape and skips its kernel, so its value
  /// holds zeros. Every other op ran for real, which folds constants.
  bool batched = false;
  int64_t input_index = -1;     // BatchInput
  const char* phase = nullptr;  // innermost ScopedPhase label
  OpAttrs attrs;
  /// The op's tape node. Holding it keeps the value alive and the node's
  /// address unique for as long as the recording exists.
  std::shared_ptr<internal::Node> node;

  const Tensor& value() const { return node->value; }
  const Shape& shape() const { return node->value.shape(); }
};

struct Recording {
  std::vector<CapturedOp> ops;
  std::vector<int32_t> outputs;
};

/// Records every op the calling thread runs while it is alive. This is how
/// serve::PlanCompiler reads a model's inference forward from the model's
/// own code. Thread-local and not nestable; other threads never see it.
///
/// The ops an inference forward uses (those with a serving-plan lowering)
/// skip their kernels on batch-dependent inputs. Losses and the other
/// training-only ops always run theirs, so they cannot be captured on
/// batch-dependent values.
class Capture {
 public:
  Capture();
  ~Capture();
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  /// Stops recording and returns the ops and the ids of `outputs`.
  Recording Finish(const std::vector<Var>& outputs);

  /// Id of `v`'s op. A node seen for the first time is a leaf made before
  /// or outside the ops: a "Parameter" if it requires grad, else a
  /// "Constant".
  int32_t Id(const Var& v);

  /// Appends `node` as an op over `parents`; batched if any parent is.
  void RecordOp(const std::shared_ptr<internal::Node>& node,
                const std::vector<Var>& parents, const OpAttrs& attrs);
  /// Appends a batch leaf (Var::BatchInput / Var::BatchZeros).
  void RecordBatchLeaf(const std::shared_ptr<internal::Node>& node,
                       const char* kind, int64_t input_index);

  bool batched(int32_t id) const {
    return recording_.ops[static_cast<size_t>(id)].batched;
  }

  /// The Capture recording on this thread, or null.
  static Capture* Active();

 private:
  friend class ScopedPhase;
  int32_t Append(CapturedOp op);

  Recording recording_;
  std::unordered_map<const internal::Node*, int32_t> ids_;
  const char* phase_ = nullptr;
  bool active_ = true;
};

/// Labels the ops recorded inside its scope with `name`; the compiled plan
/// times each label as serve.plan.<name>_seconds. Free without a Capture.
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Capture* capture_;
  const char* saved_ = nullptr;
};

namespace internal {

/// True while a Capture records on this thread and `v` depends on the
/// batch. An op over such a parent allocates its output shape and skips
/// its kernel.
inline bool Batched(const Var& v) {
  Capture* capture = Capture::Active();
  return capture != nullptr && capture->batched(capture->Id(v));
}

template <typename... Vars>
bool SkipKernel(const Vars&... parents) {
  return (Batched(parents) || ...);
}

inline bool SkipKernel(const std::vector<Var>& parents) {
  for (const Var& p : parents) {
    if (Batched(p)) return true;
  }
  return false;
}

}  // namespace internal

}  // namespace odf::autograd

#endif  // ODF_AUTOGRAD_CAPTURE_H_
