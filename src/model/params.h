// Named parameter registry.
//
// Modules create their weights through a ParamStore so the trainer can
// enumerate every trainable tensor (AlphaFold has >4000 parameter tensors;
// the fused optimizer's pointer-packed multi-tensor apply consumes exactly
// this list). Names are hierarchical ("evoformer.3.row_attn.q.w").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "autograd/var.h"
#include "common/rng.h"

namespace sf::model {

enum class Init {
  kZeros,
  kOnes,
  kLecunNormal,   ///< stddev = 1/sqrt(fan_in)
  kSmallNormal,   ///< stddev = 0.1/sqrt(fan_in): heads that must break
                  ///< symmetry (e.g. position heads, where an all-zero
                  ///< prediction is a saddle of the distance loss)
  kFinalZero,     ///< zero init for residual-final projections (AF2 style)
};

class ParamStore {
 public:
  /// Create (or fail if duplicate) a trainable parameter.
  autograd::Var create(const std::string& name, Shape shape, Init init,
                       Rng& rng);

  /// Lookup by exact name; throws if missing.
  const autograd::Var& get(const std::string& name) const;

  std::vector<autograd::Var> all() const;
  const std::map<std::string, autograd::Var>& named() const { return params_; }
  size_t size() const { return params_.size(); }
  int64_t total_elements() const;

 private:
  std::map<std::string, autograd::Var> params_;
};

}  // namespace sf::model
