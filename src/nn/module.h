#ifndef ODF_NN_MODULE_H_
#define ODF_NN_MODULE_H_

#include <vector>

#include "autograd/var.h"

namespace odf::nn {

/// Base class for trainable layers: owns the parameter registry so
/// optimizers can discover every trainable Var recursively.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// All trainable parameters, including those of registered submodules.
  std::vector<autograd::Var> Parameters() const {
    std::vector<autograd::Var> all = params_;
    for (const Module* sub : submodules_) {
      const auto sub_params = sub->Parameters();
      all.insert(all.end(), sub_params.begin(), sub_params.end());
    }
    return all;
  }

  /// Total number of trainable scalars (paper Table I "# weights").
  int64_t NumParameters() const {
    int64_t total = 0;
    for (const auto& p : Parameters()) total += p.value().numel();
    return total;
  }

  /// Clears gradient accumulators of every parameter.
  void ZeroGrad() {
    for (auto& p : Parameters()) p.ZeroGrad();
  }

 protected:
  /// Wraps `init` as a trainable parameter and registers it.
  autograd::Var RegisterParameter(Tensor init) {
    autograd::Var v(std::move(init), /*requires_grad=*/true);
    params_.push_back(v);
    return v;
  }

  /// Registers a child module (must outlive this module).
  void RegisterSubmodule(Module* module) { submodules_.push_back(module); }

 private:
  std::vector<autograd::Var> params_;
  std::vector<Module*> submodules_;
};

}  // namespace odf::nn

#endif  // ODF_NN_MODULE_H_
