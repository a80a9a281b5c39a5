#include "rl/agent.h"

#include <fstream>

#include "nn/simd.h"
#include "util/check.h"
#include "util/serialize.h"

namespace ams::rl {

namespace {
constexpr uint32_t kCheckpointMagic = 0x414D5331;  // "AMS1"
}  // namespace

Agent::Agent(std::unique_ptr<nn::QValueNet> net, nn::NetKind kind)
    : net_(std::move(net)), kind_(kind) {
  AMS_CHECK(net_ != nullptr);
}

core::ModelValuePredictor::BackendInfo Agent::backend_info() const {
  BackendInfo info;
  info.simd_tier = static_cast<int>(nn::simd::ActiveTier());
  return info;
}

std::vector<double> Agent::PredictValues(
    const std::vector<float>& state_features) {
  const std::vector<float> q = net_->Predict1(state_features);
  return std::vector<double>(q.begin(), q.end());
}

void Agent::PredictValuesBatchTo(const std::vector<float>* const* states,
                                 const std::vector<int>* const* set_indices,
                                 size_t count, double* out) {
  if (count == 0) return;
  // assign() reuses the pointer-scratch capacity; after warm-up this whole
  // call (including the net's activation matrices) allocates nothing.
  batch_rows_.assign(states, states + count);
  if (set_indices != nullptr) {
    batch_indices_.assign(set_indices, set_indices + count);
  } else {
    batch_indices_.clear();
  }
  net_->PredictBatch(batch_rows_, batch_indices_, &batch_q_);
  const size_t stride = static_cast<size_t>(num_actions());
  double* dst = out;
  for (size_t i = 0; i < count; ++i) {
    const float* row = batch_q_.Row(static_cast<int>(i));
    for (size_t j = 0; j < stride; ++j) dst[j] = row[j];
    dst += stride;
  }
}

void Agent::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  AMS_CHECK(out.good(), "cannot open checkpoint for writing: " + path);
  util::BinaryWriter w(&out);
  w.WriteU32(kCheckpointMagic);
  nn::SaveNet(*net_, kind_, &w);
  AMS_CHECK(w.ok(), "checkpoint write failed: " + path);
}

std::unique_ptr<Agent> Agent::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return nullptr;
  util::BinaryReader r(&in);
  if (r.ReadU32() != kCheckpointMagic) return nullptr;
  nn::NetKind kind;
  std::unique_ptr<nn::QValueNet> net = nn::LoadNet(&r, &kind);
  if (net == nullptr || !r.ok()) return nullptr;
  return std::make_unique<Agent>(std::move(net), kind);
}

std::unique_ptr<Agent> Agent::Clone() const {
  return std::make_unique<Agent>(net_->Clone(), kind_);
}

bool Agent::SyncWeightsFrom(core::ModelValuePredictor* source) {
  auto* other = dynamic_cast<Agent*>(source);
  if (other == nullptr || other->kind_ != kind_ ||
      other->net_->input_dim() != net_->input_dim() ||
      other->net_->output_dim() != net_->output_dim()) {
    return false;
  }
  net_->CopyWeightsFrom(other->net_.get());
  return true;
}

}  // namespace ams::rl
