#include "model/params.h"

#include <cmath>

#include "common/error.h"

namespace sf::model {

autograd::Var ParamStore::create(const std::string& name, Shape shape,
                                 Init init, Rng& rng) {
  SF_CHECK(params_.find(name) == params_.end())
      << "duplicate parameter" << name;
  Tensor value;
  switch (init) {
    case Init::kZeros:
    case Init::kFinalZero:
      value = Tensor::zeros(shape);
      break;
    case Init::kOnes:
      value = Tensor::ones(shape);
      break;
    case Init::kLecunNormal:
    case Init::kSmallNormal: {
      SF_CHECK(!shape.empty());
      int64_t fan_in = shape[0];
      float stddev = 1.0f / std::sqrt(static_cast<float>(fan_in));
      if (init == Init::kSmallNormal) stddev *= 0.1f;
      value = Tensor::randn(shape, rng, 0.0f, stddev);
      break;
    }
  }
  autograd::Var v(std::move(value), /*requires_grad=*/true);
  params_.emplace(name, v);
  return v;
}

const autograd::Var& ParamStore::get(const std::string& name) const {
  auto it = params_.find(name);
  SF_CHECK(it != params_.end()) << "unknown parameter" << name;
  return it->second;
}

std::vector<autograd::Var> ParamStore::all() const {
  std::vector<autograd::Var> out;
  out.reserve(params_.size());
  for (const auto& [name, v] : params_) out.push_back(v);
  return out;
}

int64_t ParamStore::total_elements() const {
  int64_t n = 0;
  for (const auto& [name, v] : params_) n += v.numel();
  return n;
}

}  // namespace sf::model
