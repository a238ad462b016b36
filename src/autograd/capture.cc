#include "autograd/capture.h"

#include <utility>

namespace odf::autograd {

namespace {

thread_local Capture* g_active = nullptr;

}  // namespace

Capture::Capture() {
  ODF_CHECK(g_active == nullptr) << "captures do not nest";
  g_active = this;
}

Capture::~Capture() {
  if (active_) g_active = nullptr;
}

Capture* Capture::Active() { return g_active; }

Recording Capture::Finish(const std::vector<Var>& outputs) {
  ODF_CHECK(active_);
  for (const Var& v : outputs) recording_.outputs.push_back(Id(v));
  active_ = false;
  g_active = nullptr;
  ids_.clear();
  return std::move(recording_);
}

int32_t Capture::Append(CapturedOp op) {
  const int32_t id = static_cast<int32_t>(recording_.ops.size());
  op.phase = phase_;
  ids_.emplace(op.node.get(), id);
  recording_.ops.push_back(std::move(op));
  return id;
}

int32_t Capture::Id(const Var& v) {
  const auto it = ids_.find(v.node().get());
  if (it != ids_.end()) return it->second;
  CapturedOp leaf;
  leaf.op = v.requires_grad() ? "Parameter" : "Constant";
  leaf.node = v.node();
  return Append(std::move(leaf));
}

void Capture::RecordOp(const std::shared_ptr<internal::Node>& node,
                       const std::vector<Var>& parents,
                       const OpAttrs& attrs) {
  CapturedOp op;
  op.op = node->op;
  op.attrs = attrs;
  op.node = node;
  for (const Var& p : parents) {
    const int32_t id = Id(p);
    op.parents.push_back(id);
    op.batched = op.batched || batched(id);
  }
  Append(std::move(op));
}

void Capture::RecordBatchLeaf(const std::shared_ptr<internal::Node>& node,
                              const char* kind, int64_t input_index) {
  CapturedOp leaf;
  leaf.op = kind;
  leaf.batched = true;
  leaf.input_index = input_index;
  leaf.node = node;
  Append(std::move(leaf));
}

ScopedPhase::ScopedPhase(const char* name) : capture_(Capture::Active()) {
  if (capture_ == nullptr) return;
  saved_ = capture_->phase_;
  capture_->phase_ = name;
}

ScopedPhase::~ScopedPhase() {
  if (capture_ != nullptr) capture_->phase_ = saved_;
}

}  // namespace odf::autograd
