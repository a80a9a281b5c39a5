#ifndef AMS_NN_LOSS_H_
#define AMS_NN_LOSS_H_

#include <vector>

#include "nn/matrix.h"

namespace ams::nn {

/// Temporal-difference loss for Q-learning batches: Huber with delta = 1
/// (smooth L1), the standard DQN choice.
///
/// For each row b, compares q.At(b, actions[b]) against targets[b]; entries
/// for non-selected actions receive zero gradient. Returns the mean loss and
/// fills `grad` (same shape as q) with dLoss/dQ (already divided by batch).
double QLoss(const Matrix& q, const std::vector<int>& actions,
             const std::vector<float>& targets, Matrix* grad);

/// Plain elementwise MSE between `pred` and `target` (used by tests and the
/// gradient checker). Fills grad with dLoss/dPred.
double MseLoss(const Matrix& pred, const Matrix& target, Matrix* grad);

}  // namespace ams::nn

#endif  // AMS_NN_LOSS_H_
