#include "nn/loss.h"

#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace ams::nn {

double QLoss(const Matrix& q, const std::vector<int>& actions,
             const std::vector<float>& targets, Matrix* grad) {
  const int batch = q.rows();
  AMS_CHECK(static_cast<int>(actions.size()) == batch);
  AMS_CHECK(static_cast<int>(targets.size()) == batch);
  grad->Resize(q.rows(), q.cols());
  grad->Fill(0.0f);
  const float inv_batch = 1.0f / static_cast<float>(batch);
  double loss = 0.0;
  for (int b = 0; b < batch; ++b) {
    const int a = actions[b];
    AMS_DCHECK(a >= 0 && a < q.cols(), "action out of range");
    const float err = q.At(b, a) - targets[b];
    const float abs_err = std::fabs(err);
    if (abs_err <= 1.0f) {
      loss += 0.5 * static_cast<double>(err) * static_cast<double>(err);
      grad->At(b, a) = err * inv_batch;
    } else {
      loss += static_cast<double>(abs_err) - 0.5;
      grad->At(b, a) = (err > 0.0f ? 1.0f : -1.0f) * inv_batch;
    }
  }
  return loss / batch;
}

double MseLoss(const Matrix& pred, const Matrix& target, Matrix* grad) {
  AMS_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols());
  grad->Resize(pred.rows(), pred.cols());
  const int n = pred.size();
  const float inv_n = 1.0f / static_cast<float>(n);
  const float* p = pred.data();
  const float* t = target.data();
  float* g = grad->data();
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const float err = p[i] - t[i];
    loss += 0.5 * static_cast<double>(err) * static_cast<double>(err);
    g[i] = err * inv_n;
  }
  return loss / n;
}

}  // namespace ams::nn
