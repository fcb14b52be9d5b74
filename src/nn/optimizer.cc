#include "nn/optimizer.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tabrep::nn {

namespace {

/// Shared instruments for every optimizer flavor.
void CountOptimizerStep() {
  static obs::Counter& steps =
      obs::Registry::Get().counter("tabrep.nn.optimizer.steps");
  steps.Increment();
}

obs::Histogram& OptimizerStepHistogram() {
  static obs::Histogram& duration_us =
      obs::Registry::Get().histogram("tabrep.nn.optimizer.step.us");
  return duration_us;
}

/// Zero-filled state shaped like each parameter, made on the first
/// Step so an optimizer that never steps holds none.
void EnsureState(const std::vector<ag::Variable*>& params,
                 std::vector<Tensor>* state) {
  if (state->size() == params.size()) return;
  state->reserve(params.size());
  for (ag::Variable* p : params) {
    state->push_back(Tensor::Zeros(p->value().shape()));
  }
}

}  // namespace

void Optimizer::ZeroGrad() {
  for (ag::Variable* p : params_) p->ZeroGrad();
}

Sgd::Sgd(std::vector<ag::Variable*> params, float lr, float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {}

void Sgd::Step() {
  TABREP_TRACE_SPAN("nn.optimizer.step");
  CountOptimizerStep();
  obs::ScopedTimer timer(OptimizerStepHistogram());
  if (momentum_ > 0.0f) EnsureState(params_, &velocity_);
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable* p = params_[i];
    const Tensor& g = p->grad();
    if (momentum_ > 0.0f) {
      Tensor& v = velocity_[i];
      v.Scale(momentum_);
      v.Add(g);
      p->mutable_value().Add(v, -lr_);
    } else {
      p->mutable_value().Add(g, -lr_);
    }
  }
}

Adam::Adam(std::vector<ag::Variable*> params, float lr, AdamOptions options)
    : Optimizer(std::move(params), lr), options_(options) {}

void Adam::Step() {
  TABREP_TRACE_SPAN("nn.optimizer.step");
  CountOptimizerStep();
  obs::ScopedTimer timer(OptimizerStepHistogram());
  EnsureState(params_, &m_);
  EnsureState(params_, &v_);
  ++step_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(step_));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable* p = params_[i];
    const Tensor& g = p->grad();
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    float* pm = m.data();
    float* pv = v.data();
    float* pw = p->mutable_value().data();
    const float* pg = g.data();
    const int64_t n = p->numel();
    for (int64_t j = 0; j < n; ++j) {
      pm[j] = b1 * pm[j] + (1.0f - b1) * pg[j];
      pv[j] = b2 * pv[j] + (1.0f - b2) * pg[j] * pg[j];
      const float mhat = pm[j] / bias1;
      const float vhat = pv[j] / bias2;
      float update = mhat / (std::sqrt(vhat) + options_.eps);
      if (options_.weight_decay > 0.0f) {
        update += options_.weight_decay * pw[j];  // decoupled (AdamW)
      }
      pw[j] -= lr_ * update;
    }
  }
}

float ClipGradNorm(const std::vector<ag::Variable*>& params, float max_norm) {
  double total = 0.0;
  for (ag::Variable* p : params) {
    const Tensor& g = p->grad();
    for (int64_t i = 0; i < g.numel(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (ag::Variable* p : params) {
      // grad() ensures allocation; scaling through the const ref's
      // buffer is safe because Variables share state.
      const_cast<Tensor&>(p->grad()).Scale(scale);
    }
  }
  return norm;
}

float WarmupCosineSchedule::LrAt(int64_t step) const {
  if (total_steps_ <= 0) return peak_lr_;
  if (warmup_steps_ > 0 && step < warmup_steps_) {
    return peak_lr_ * static_cast<float>(step + 1) /
           static_cast<float>(warmup_steps_);
  }
  const float progress =
      static_cast<float>(std::min(step, total_steps_) - warmup_steps_) /
      static_cast<float>(std::max<int64_t>(1, total_steps_ - warmup_steps_));
  const float cosine = 0.5f * (1.0f + std::cos(3.14159265358979f * progress));
  return floor_lr_ + (peak_lr_ - floor_lr_) * cosine;
}

float WarmupLinearSchedule::LrAt(int64_t step) const {
  if (total_steps_ <= 0) return peak_lr_;
  if (warmup_steps_ > 0 && step < warmup_steps_) {
    return peak_lr_ * static_cast<float>(step + 1) /
           static_cast<float>(warmup_steps_);
  }
  const float remaining = static_cast<float>(total_steps_ - step) /
                          static_cast<float>(
                              std::max<int64_t>(1, total_steps_ - warmup_steps_));
  return peak_lr_ * std::max(0.0f, remaining);
}

}  // namespace tabrep::nn
