#include "nn/net.h"

#include <sstream>
#include <utility>

#include "util/check.h"

namespace ams::nn {

namespace {

// Bytes DenseLayer::Save writes for an in_dim x out_dim layer: the two i32
// dims, then the weights and the bias, each behind a u64 length prefix.
// Dims are positive int32s, so the 64-bit arithmetic cannot overflow.
uint64_t DenseLayerBytes(int in_dim, int out_dim) {
  const uint64_t params =
      static_cast<uint64_t>(in_dim) * static_cast<uint64_t>(out_dim) +
      static_cast<uint64_t>(out_dim);
  return 2 * sizeof(int32_t) + 2 * sizeof(uint64_t) + params * sizeof(float);
}

// Reads a checkpoint header (input dim, hidden dims, output dim) and
// validates it before anything is sized from it: every dim must be
// positive, the hidden count within [1 if dueling else 0, 64], and the
// layers the config implies (the Mlp chain, or the dueling trunk plus its
// two heads) must fit in the bytes left in the stream. A corrupt header
// thus fails here instead of driving a huge allocation or a constructor
// check; each layer's own dims are then checked against this config as it
// loads (DenseLayer::Load).
bool ReadConfig(util::BinaryReader* r, bool dueling, MlpConfig* cfg) {
  cfg->input_dim = r->ReadI32();
  const int num_hidden = r->ReadI32();
  if (!r->ok() || num_hidden < (dueling ? 1 : 0) || num_hidden > 64) {
    return false;
  }
  for (int i = 0; i < num_hidden; ++i) cfg->hidden_dims.push_back(r->ReadI32());
  cfg->output_dim = r->ReadI32();
  if (!r->ok() || cfg->input_dim <= 0 || cfg->output_dim <= 0) return false;
  std::vector<std::pair<int, int>> shapes;
  int prev = cfg->input_dim;
  for (const int h : cfg->hidden_dims) {
    if (h <= 0) return false;
    shapes.emplace_back(prev, h);
    prev = h;
  }
  if (dueling) shapes.emplace_back(prev, 1);
  shapes.emplace_back(prev, cfg->output_dim);
  const uint64_t left = r->bytes_left();
  uint64_t need = 0;
  for (const auto& [in_dim, out_dim] : shapes) {
    const uint64_t bytes = DenseLayerBytes(in_dim, out_dim);
    if (bytes > left - need) return false;
    need += bytes;
  }
  return true;
}

}  // namespace

void QValueNet::CopyWeightsFrom(QValueNet* src) {
  std::vector<ParamGrad> dst_params, src_params;
  CollectParams(&dst_params);
  src->CollectParams(&src_params);
  AMS_CHECK(dst_params.size() == src_params.size(), "architecture mismatch");
  for (size_t i = 0; i < dst_params.size(); ++i) {
    AMS_CHECK(dst_params[i].size == src_params[i].size, "tensor size mismatch");
    std::copy(src_params[i].param, src_params[i].param + src_params[i].size,
              dst_params[i].param);
  }
}

std::vector<float> QValueNet::Predict1(const std::vector<float>& x) {
  AMS_CHECK(static_cast<int>(x.size()) == input_dim());
  Matrix in = Matrix::FromRowVector(x);
  Matrix q;
  Forward(in, &q);
  return std::vector<float>(q.Row(0), q.Row(0) + q.cols());
}

size_t QValueNet::NumParams() {
  std::vector<ParamGrad> params;
  CollectParams(&params);
  size_t n = 0;
  for (const auto& p : params) n += p.size;
  return n;
}

// ---------------------------------------------------------------------------
// Mlp

Mlp::Mlp(const MlpConfig& config, uint64_t seed) : config_(config) {
  AMS_CHECK(config.input_dim > 0 && config.output_dim > 0);
  util::Rng rng(seed);
  int prev = config.input_dim;
  for (int h : config.hidden_dims) {
    AMS_CHECK(h > 0);
    layers_.emplace_back(prev, h, &rng);
    prev = h;
  }
  layers_.emplace_back(prev, config.output_dim, &rng);
  pre_act_.resize(layers_.size());
  post_act_.resize(layers_.size());
  grad_post_.resize(layers_.size());
  grad_pre_.resize(layers_.size());
}

void Mlp::Forward(const Matrix& x, Matrix* q) {
  input_ = x;
  const Matrix* cur = &input_;
  const size_t n = layers_.size();
  for (size_t i = 0; i < n; ++i) {
    layers_[i].Forward(*cur, &pre_act_[i]);
    if (i + 1 < n) {
      ReluForward(pre_act_[i], &post_act_[i]);
      cur = &post_act_[i];
    }
  }
  *q = pre_act_.back();  // linear output layer
}

void Mlp::PredictBatch(const std::vector<const std::vector<float>*>& rows,
                       const std::vector<const std::vector<int>*>& indices,
                       Matrix* q) {
  // Inference only: the sparse rows feed the first layer directly — no
  // dense input build, no input_ cache copy. Later layers run the normal
  // dense path on the (small) hidden activations.
  const size_t n = layers_.size();
  layers_[0].ForwardSparseRows(rows, indices, &pre_act_[0]);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) layers_[i].Forward(post_act_[i - 1], &pre_act_[i]);
    if (i + 1 < n) ReluForward(pre_act_[i], &post_act_[i]);
  }
  *q = pre_act_.back();
}

void Mlp::Backward(const Matrix& grad_q) {
  const int n = static_cast<int>(layers_.size());
  const Matrix* grad = &grad_q;
  for (int i = n - 1; i >= 0; --i) {
    const Matrix& layer_input = (i == 0) ? input_ : post_act_[i - 1];
    Matrix* grad_x = (i == 0) ? nullptr : &grad_post_[i - 1];
    layers_[i].Backward(layer_input, *grad, grad_x);
    if (i > 0) {
      // Route through the ReLU that produced this layer's input.
      ReluBackward(pre_act_[i - 1], grad_post_[i - 1], &grad_pre_[i - 1]);
      grad = &grad_pre_[i - 1];
    }
  }
}

void Mlp::CollectParams(std::vector<ParamGrad>* out) {
  for (auto& layer : layers_) layer.CollectParams(out);
}

void Mlp::Save(util::BinaryWriter* w) const {
  w->WriteI32(config_.input_dim);
  w->WriteI32(static_cast<int32_t>(config_.hidden_dims.size()));
  for (int h : config_.hidden_dims) w->WriteI32(h);
  w->WriteI32(config_.output_dim);
  for (const auto& layer : layers_) layer.Save(w);
}

bool Mlp::Load(util::BinaryReader* r) {
  MlpConfig cfg;
  if (!ReadConfig(r, /*dueling=*/false, &cfg)) return false;
  *this = Mlp(cfg, /*seed=*/0);
  for (auto& layer : layers_) {
    if (!layer.Load(r)) return false;
  }
  return true;
}

std::unique_ptr<QValueNet> Mlp::Clone() const {
  auto clone = std::make_unique<Mlp>(config_, /*seed=*/0);
  std::stringstream buf;
  util::BinaryWriter w(&buf);
  Save(&w);
  util::BinaryReader r(&buf);
  AMS_CHECK(clone->Load(&r), "clone round-trip failed");
  return clone;
}

// ---------------------------------------------------------------------------
// DuelingMlp

DuelingMlp::DuelingMlp(const MlpConfig& config, uint64_t seed) : config_(config) {
  AMS_CHECK(config.input_dim > 0 && config.output_dim > 0);
  AMS_CHECK(!config.hidden_dims.empty(), "dueling net needs a trunk");
  util::Rng rng(seed);
  int prev = config.input_dim;
  for (int h : config.hidden_dims) {
    AMS_CHECK(h > 0);
    trunk_.emplace_back(prev, h, &rng);
    prev = h;
  }
  value_head_ = std::make_unique<DenseLayer>(prev, 1, &rng);
  advantage_head_ = std::make_unique<DenseLayer>(prev, config.output_dim, &rng);
  pre_act_.resize(trunk_.size());
  post_act_.resize(trunk_.size());
  grad_post_.resize(trunk_.size());
  grad_pre_.resize(trunk_.size());
}

void DuelingMlp::CombineHeads(int batch, Matrix* q) const {
  const int out = config_.output_dim;
  q->Resize(batch, out);
  for (int b = 0; b < batch; ++b) {
    const float* adv = advantage_out_.Row(b);
    float mean_adv = 0.0f;
    for (int j = 0; j < out; ++j) mean_adv += adv[j];
    mean_adv /= static_cast<float>(out);
    const float v = value_out_.At(b, 0);
    float* q_row = q->Row(b);
    for (int j = 0; j < out; ++j) q_row[j] = v + adv[j] - mean_adv;
  }
}

void DuelingMlp::Forward(const Matrix& x, Matrix* q) {
  input_ = x;
  const Matrix* cur = &input_;
  for (size_t i = 0; i < trunk_.size(); ++i) {
    trunk_[i].Forward(*cur, &pre_act_[i]);
    ReluForward(pre_act_[i], &post_act_[i]);
    cur = &post_act_[i];
  }
  value_head_->Forward(*cur, &value_out_);
  advantage_head_->Forward(*cur, &advantage_out_);
  CombineHeads(x.rows(), q);
}

void DuelingMlp::PredictBatch(
    const std::vector<const std::vector<float>*>& rows,
    const std::vector<const std::vector<int>*>& indices, Matrix* q) {
  // Inference only: sparse rows feed the first trunk layer directly (see
  // Mlp::PredictBatch).
  trunk_[0].ForwardSparseRows(rows, indices, &pre_act_[0]);
  ReluForward(pre_act_[0], &post_act_[0]);
  for (size_t i = 1; i < trunk_.size(); ++i) {
    trunk_[i].Forward(post_act_[i - 1], &pre_act_[i]);
    ReluForward(pre_act_[i], &post_act_[i]);
  }
  const Matrix& trunk_out = post_act_.back();
  value_head_->Forward(trunk_out, &value_out_);
  advantage_head_->Forward(trunk_out, &advantage_out_);
  CombineHeads(static_cast<int>(rows.size()), q);
}

void DuelingMlp::Backward(const Matrix& grad_q) {
  const int batch = grad_q.rows();
  const int out = config_.output_dim;
  AMS_CHECK(grad_q.cols() == out);
  // Q_j = V + A_j - mean(A)  =>  dL/dV = sum_j dL/dQ_j,
  // dL/dA_i = dL/dQ_i - mean_j(dL/dQ_j).
  grad_value_.Resize(batch, 1);
  grad_advantage_.Resize(batch, out);
  for (int b = 0; b < batch; ++b) {
    const float* gq = grad_q.Row(b);
    float total = 0.0f;
    for (int j = 0; j < out; ++j) total += gq[j];
    grad_value_.At(b, 0) = total;
    const float mean = total / static_cast<float>(out);
    float* ga = grad_advantage_.Row(b);
    for (int j = 0; j < out; ++j) ga[j] = gq[j] - mean;
  }
  const Matrix& trunk_out = post_act_.back();
  value_head_->Backward(trunk_out, grad_value_, &grad_trunk_v_);
  advantage_head_->Backward(trunk_out, grad_advantage_, &grad_trunk_a_);
  // Sum head gradients flowing into the trunk output.
  Matrix grad_trunk = grad_trunk_v_;
  {
    float* dst = grad_trunk.data();
    const float* src = grad_trunk_a_.data();
    const int n = grad_trunk.size();
    for (int i = 0; i < n; ++i) dst[i] += src[i];
  }
  const int nt = static_cast<int>(trunk_.size());
  Matrix relu_grad;
  ReluBackward(pre_act_[nt - 1], grad_trunk, &relu_grad);
  const Matrix* grad = &relu_grad;
  for (int i = nt - 1; i >= 0; --i) {
    const Matrix& layer_input = (i == 0) ? input_ : post_act_[i - 1];
    Matrix* grad_x = (i == 0) ? nullptr : &grad_post_[i - 1];
    trunk_[i].Backward(layer_input, *grad, grad_x);
    if (i > 0) {
      ReluBackward(pre_act_[i - 1], grad_post_[i - 1], &grad_pre_[i - 1]);
      grad = &grad_pre_[i - 1];
    }
  }
}

void DuelingMlp::CollectParams(std::vector<ParamGrad>* out) {
  for (auto& layer : trunk_) layer.CollectParams(out);
  value_head_->CollectParams(out);
  advantage_head_->CollectParams(out);
}

void DuelingMlp::Save(util::BinaryWriter* w) const {
  w->WriteI32(config_.input_dim);
  w->WriteI32(static_cast<int32_t>(config_.hidden_dims.size()));
  for (int h : config_.hidden_dims) w->WriteI32(h);
  w->WriteI32(config_.output_dim);
  for (const auto& layer : trunk_) layer.Save(w);
  value_head_->Save(w);
  advantage_head_->Save(w);
}

bool DuelingMlp::Load(util::BinaryReader* r) {
  MlpConfig cfg;
  if (!ReadConfig(r, /*dueling=*/true, &cfg)) return false;
  *this = DuelingMlp(cfg, /*seed=*/0);
  for (auto& layer : trunk_) {
    if (!layer.Load(r)) return false;
  }
  if (!value_head_->Load(r)) return false;
  if (!advantage_head_->Load(r)) return false;
  return true;
}

std::unique_ptr<QValueNet> DuelingMlp::Clone() const {
  auto clone = std::make_unique<DuelingMlp>(config_, /*seed=*/0);
  std::stringstream buf;
  util::BinaryWriter w(&buf);
  Save(&w);
  util::BinaryReader r(&buf);
  AMS_CHECK(clone->Load(&r), "clone round-trip failed");
  return clone;
}

// ---------------------------------------------------------------------------

void SaveNet(const QValueNet& net, NetKind kind, util::BinaryWriter* w) {
  w->WriteI32(static_cast<int32_t>(kind));
  net.Save(w);
}

std::unique_ptr<QValueNet> LoadNet(util::BinaryReader* r, NetKind* kind_out) {
  const int32_t kind = r->ReadI32();
  if (!r->ok()) return nullptr;
  std::unique_ptr<QValueNet> net;
  if (kind == static_cast<int32_t>(NetKind::kMlp)) {
    MlpConfig placeholder{1, {}, 1};
    auto mlp = std::make_unique<Mlp>(placeholder, 0);
    if (!mlp->Load(r)) return nullptr;
    net = std::move(mlp);
  } else if (kind == static_cast<int32_t>(NetKind::kDueling)) {
    MlpConfig placeholder{1, {1}, 1};
    auto dueling = std::make_unique<DuelingMlp>(placeholder, 0);
    if (!dueling->Load(r)) return nullptr;
    net = std::move(dueling);
  } else {
    return nullptr;
  }
  if (kind_out != nullptr) *kind_out = static_cast<NetKind>(kind);
  return net;
}

}  // namespace ams::nn
