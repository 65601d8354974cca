// Transmit power control (Section 6.1).
//
// The paper's algorithm: "transmit with sufficient power to deliver a
// constant pre-determined amount of power to the intended receiver." This
// keeps the system-wide power density constant as local station density
// varies, so the Section-4 SNR analysis keeps holding, and it collapses the
// variance of received SNRs (bench A2 measures exactly that).
#pragma once

namespace drn::core {

class PowerControl {
 public:
  /// Controlled mode: power = target_received_w / gain, clamped to
  /// max_power_w.
  PowerControl(double target_received_w, double max_power_w);

  /// Uncontrolled mode: every transmission uses `power_w` (the Section 4
  /// "all transmissions at the same power level" assumption; ablation A2).
  static PowerControl fixed(double power_w);

  /// Transmit power to use toward a receiver reached with `gain_to_receiver`.
  [[nodiscard]] double transmit_power_w(double gain_to_receiver) const;

  /// The reach rule's threshold: the weakest gain at which the target
  /// received power is achievable within the power limit (0 when
  /// uncontrolled). This is the one place it is computed; the scheduled
  /// network's neighbours and the routing graph's edges both use it.
  [[nodiscard]] double min_gain() const {
    return target_received_w_ / max_power_w_;
  }

  /// True iff gain_to_receiver >= min_gain().
  [[nodiscard]] bool reachable(double gain_to_receiver) const;

  [[nodiscard]] bool controlled() const { return controlled_; }
  [[nodiscard]] double target_received_w() const { return target_received_w_; }
  [[nodiscard]] double max_power_w() const { return max_power_w_; }

 private:
  PowerControl(bool controlled, double target, double max_power);

  bool controlled_;
  double target_received_w_;
  double max_power_w_;
};

}  // namespace drn::core
