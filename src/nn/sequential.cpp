#include "lcda/nn/sequential.h"

#include <sstream>
#include <stdexcept>

namespace lcda::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

const Tensor& Sequential::forward(const Tensor& x) {
  if (layers_.empty()) throw std::logic_error("Sequential::forward: no layers");
  const Tensor* cur = &x;
  for (auto& layer : layers_) cur = &layer->forward(*cur);
  return *cur;
}

void Sequential::backward(const Tensor& dlogits) {
  const Tensor* cur = &dlogits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = &(*it)->backward(*cur);
  }
}

double Sequential::train_step_loss(const Tensor& x, std::span<const int> labels) {
  const Tensor& logits = forward(x);
  probs_.ensure_shape(logits.shape());
  dlogits_.ensure_shape(logits.shape());
  tensor::softmax_rows(logits, probs_);
  const double loss = tensor::cross_entropy_loss(probs_, labels, dlogits_);
  backward(dlogits_);
  return loss;
}

std::vector<int> Sequential::predict(const Tensor& x) {
  return tensor::argmax_rows(forward(x));
}

double Sequential::accuracy(const Tensor& x, std::span<const int> labels) {
  const auto preds = predict(x);
  if (preds.size() != labels.size()) {
    throw std::invalid_argument("accuracy: label count mismatch");
  }
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return preds.empty() ? 0.0 : static_cast<double>(correct) / preds.size();
}

void Sequential::set_training(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) out.push_back(p);
  }
  return out;
}

long long Sequential::macs_per_sample() const {
  long long total = 0;
  for (const auto& layer : layers_) total += layer->macs_per_sample();
  return total;
}

std::size_t Sequential::param_count() {
  std::size_t total = 0;
  for (Param* p : params()) total += p->value.size();
  return total;
}

std::string Sequential::describe() const {
  std::ostringstream os;
  for (const auto& layer : layers_) os << layer->describe() << '\n';
  return os.str();
}

}  // namespace lcda::nn
