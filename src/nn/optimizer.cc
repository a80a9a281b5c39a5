#include "nn/optimizer.h"

#include <cmath>

#include "util/check.h"

namespace ams::nn {

namespace {

// Lazily sizes `state` to mirror `params` (all zeros) on first use.
void EnsureState(std::vector<std::vector<float>>* state,
                 const std::vector<ParamGrad>& params) {
  if (!state->empty()) {
    AMS_CHECK(state->size() == params.size(),
              "optimizer reused with different parameter set");
    return;
  }
  state->reserve(params.size());
  for (const auto& p : params) state->emplace_back(p.size, 0.0f);
}

}  // namespace

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  AMS_CHECK(lr > 0.0f);
  AMS_CHECK(beta1 >= 0.0f && beta1 < 1.0f);
  AMS_CHECK(beta2 >= 0.0f && beta2 < 1.0f);
}

void Adam::Step(const std::vector<ParamGrad>& params) {
  EnsureState(&m_, params);
  EnsureState(&v_, params);
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t t = 0; t < params.size(); ++t) {
    const ParamGrad& p = params[t];
    float* m = m_[t].data();
    float* v = v_[t].data();
    for (size_t i = 0; i < p.size; ++i) {
      const float g = p.grad[i];
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g;
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g * g;
      const float m_hat = m[i] / bc1;
      const float v_hat = v[i] / bc2;
      p.param[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

}  // namespace ams::nn
