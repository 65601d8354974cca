#include "core/power_control.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace drn::core {

PowerControl::PowerControl(bool controlled, double target, double max_power)
    : controlled_(controlled),
      target_received_w_(target),
      max_power_w_(max_power) {}

PowerControl::PowerControl(double target_received_w, double max_power_w)
    : PowerControl(true, target_received_w, max_power_w) {
  DRN_EXPECTS(target_received_w > 0.0);
  DRN_EXPECTS(max_power_w > 0.0);
}

PowerControl PowerControl::fixed(double power_w) {
  DRN_EXPECTS(power_w > 0.0);
  return PowerControl(false, 0.0, power_w);
}

double PowerControl::transmit_power_w(double gain_to_receiver) const {
  DRN_EXPECTS(gain_to_receiver > 0.0);
  if (!controlled_) return max_power_w_;
  return std::min(target_received_w_ / gain_to_receiver, max_power_w_);
}

bool PowerControl::reachable(double gain_to_receiver) const {
  DRN_EXPECTS(gain_to_receiver > 0.0);
  return gain_to_receiver >= min_gain();
}

}  // namespace drn::core
