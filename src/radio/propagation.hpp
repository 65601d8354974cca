// Propagation models: the map from geometry to power gain.
//
// Section 3.3 of the paper reduces propagation to a scalar per ordered pair:
// the amplitude response h_ij ∝ 1/r_ij, so the POWER gain is h² ∝ 1/r².
// This library works in power gains throughout:
//
//     received_power = power_gain(i, j) * transmitted_power.
//
// Section 3.5 ("Calibration") notes that free space is the accurate-or-
// pessimistic choice: near signals are modelled well, distant ones are
// overestimated (obstructions only attenuate). We provide the paper's
// free-space law, a general power-law exponent, and a deterministic
// log-normal shadowing decorator for the obstructed building-to-building
// scenarios that motivate the paper.
#pragma once

#include <memory>

#include "geo/vec2.hpp"
#include "radio/units.hpp"

namespace drn::radio {

/// Interface: power gain between two points in the plane. Implementations
/// must be symmetric (gain(a,b) == gain(b,a)) and positive, and power_gain
/// must be safe to call concurrently on a const model: the dense matrix
/// build calls it from several threads at once.
class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Power gain h² between points a and b (> 0).
  [[nodiscard]] virtual LinearGain power_gain(geo::Vec2 a,
                                              geo::Vec2 b) const = 0;
};

/// Inverse power law: gain = kappa * (r0 / r)^alpha with kappa = 1 and
/// r0 = 1 m (the Section 6.1 power-control target absorbs kappa), clamped
/// below 0.1 m so the gain never exceeds the gain there (the far-field model
/// is meaningless at r -> 0).
class PowerLawPropagation : public PropagationModel {
 public:
  /// @param exponent path-loss exponent alpha (2 = free space).
  explicit PowerLawPropagation(double exponent = 2.0);

  [[nodiscard]] LinearGain power_gain(geo::Vec2 a, geo::Vec2 b) const override;

  /// Gain at scalar distance r (same clamping). Exposed for the analytic
  /// noise-growth code and tests.
  [[nodiscard]] LinearGain gain_at(Meters r) const;

 private:
  double exponent_;
};

/// The paper's model: free space, power falls as 1/r².
class FreeSpacePropagation : public PowerLawPropagation {
 public:
  FreeSpacePropagation() : PowerLawPropagation(2.0) {}
};

/// Dual-slope (two-ray) model: free-space 1/r^2 out to a breakpoint
/// distance, then a steeper 1/r^4 beyond it — the classic ground-reflection
/// behaviour of near-ground urban links. Continuous at the breakpoint.
/// Strictly more pessimistic than free space past the breakpoint, so the
/// Section 3.5 envelope argument still holds (and the Section 4 interference
/// integral CONVERGES under it, removing the radio-horizon cutoff assumption
/// — see the noise-growth tests).
class DualSlopePropagation : public PropagationModel {
 public:
  /// @param breakpoint distance where the slope steepens (>= the 0.1 m
  ///                   near-field clamp).
  explicit DualSlopePropagation(Meters breakpoint);

  [[nodiscard]] LinearGain power_gain(geo::Vec2 a, geo::Vec2 b) const override;

  /// Gain at scalar distance r.
  [[nodiscard]] LinearGain gain_at(Meters r) const;

 private:
  FreeSpacePropagation near_;
  Meters breakpoint_;
};

/// Decorates a base model with deterministic log-normal shadowing: each
/// unordered pair of points draws a fixed attenuation 10^(sigma_db·z/10) with
/// z standard normal, derived by hashing the pair's coordinates under `seed`.
/// Shadowing only ever attenuates relative to +3 sigma (attenuation is capped
/// at 0 dB gain boost of 3 sigma), keeping the free-space model the
/// optimistic envelope the paper assumes. Symmetric by construction.
class LogNormalShadowing : public PropagationModel {
 public:
  LogNormalShadowing(std::shared_ptr<const PropagationModel> base,
                     Decibels sigma, std::uint64_t seed);

  [[nodiscard]] LinearGain power_gain(geo::Vec2 a, geo::Vec2 b) const override;

 private:
  std::shared_ptr<const PropagationModel> base_;
  Decibels sigma_;
  std::uint64_t seed_;
};

}  // namespace drn::radio
