// Module / Parameter machinery for the explicit-backward neural-net layers.
//
// iTask deliberately avoids a tape autograd (DESIGN.md §6.1): every layer
// caches what its backward pass needs and exposes `backward(grad_out)`
// returning the gradient w.r.t. its input. Parameters accumulate gradients
// in-place; optimizers consume `parameters()`.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/io.h"
#include "tensor/tensor.h"

namespace itask::nn {

/// A trainable tensor together with its accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
};

/// Base class for layers and models. Owns its parameters; children are
/// non-owning references registered by the subclass constructor.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its children, in registration order.
  std::vector<Parameter*> parameters();

  /// This module and every descendant, depth-first in registration order.
  std::vector<Module*> modules();

  /// Total number of trainable scalars.
  int64_t parameter_count();

  void zero_grad();

  /// Flattens parameters into a name->tensor map ("child.weight" style keys).
  io::StateDict state_dict();

  /// Loads values for every parameter present in `state`; missing or
  /// mismatched entries throw.
  void load_state_dict(const io::StateDict& state);

  /// Installs the fp32 serving kernel on every nn::Linear in this module
  /// tree that has none (nn::Linear overrides; the default just recurses).
  /// Invoked by Framework::publish() on each student a DeploymentSnapshot
  /// captures. Call only once the weights are final: training does NOT
  /// invalidate the kernels (the serving convention replaces model objects
  /// instead of retraining them). Idempotent and write-free once installed,
  /// so re-publishing an already-served model is thread-safe.
  virtual void prepack_for_serving();

 protected:
  /// Creates and owns a parameter; the returned reference is stable.
  Parameter& register_parameter(std::string name, Tensor init);

  /// Registers a child module (must outlive this module — typically a member).
  void register_child(std::string name, Module& child);

 private:
  struct Child {
    std::string name;
    Module* module;
  };

  std::vector<std::unique_ptr<Parameter>> params_;
  std::vector<Child> children_;
};

}  // namespace itask::nn
