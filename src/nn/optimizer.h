#ifndef AMS_NN_OPTIMIZER_H_
#define AMS_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace ams::nn {

/// Adam (Kingma & Ba) with bias correction over a fixed set of parameter
/// tensors: the optimizer of the DRL trainer.
///
/// The moment buffers are keyed by position in the `params` vector, so
/// callers must pass the same CollectParams() output in the same order on
/// every Step().
class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f);

  /// Applies one update using the gradients currently stored next to each
  /// parameter tensor.
  void Step(const std::vector<ParamGrad>& params);

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace ams::nn

#endif  // AMS_NN_OPTIMIZER_H_
