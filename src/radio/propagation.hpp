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

/// Inverse power law: gain = reference_gain * (reference_distance / r)^alpha,
/// clamped below min_distance so the gain never exceeds the gain at
/// min_distance (the far-field model is meaningless at r -> 0).
class PowerLawPropagation : public PropagationModel {
 public:
  /// @param exponent           path-loss exponent alpha (2 = free space).
  /// @param reference_gain     gain at reference_distance (the paper's kappa,
  ///                           set by antennas and wavelength).
  /// @param reference_distance distance at which reference_gain applies.
  /// @param min_distance       near-field clamp distance.
  explicit PowerLawPropagation(double exponent = 2.0,
                               LinearGain reference_gain = LinearGain{1.0},
                               Meters reference_distance = Meters{1.0},
                               Meters min_distance = Meters{0.1});

  [[nodiscard]] LinearGain power_gain(geo::Vec2 a, geo::Vec2 b) const override;

  /// Gain at scalar distance r (same clamping). Exposed for the analytic
  /// noise-growth code and tests.
  [[nodiscard]] LinearGain gain_at(Meters r) const;

  [[nodiscard]] double exponent() const { return exponent_; }

 private:
  double exponent_;
  LinearGain reference_gain_;
  Meters reference_distance_;
  Meters min_distance_;
};

/// The paper's model: free space, power falls as 1/r².
class FreeSpacePropagation : public PowerLawPropagation {
 public:
  explicit FreeSpacePropagation(LinearGain reference_gain = LinearGain{1.0},
                                Meters reference_distance = Meters{1.0},
                                Meters min_distance = Meters{0.1})
      : PowerLawPropagation(2.0, reference_gain, reference_distance,
                            min_distance) {}
};

/// Constant multipath penalty (Section 3.3): "the reduction in performance
/// due to actual multipath would be equivalent to a couple of decibel
/// decrease in signal to interference ratio" — modelled, as the paper does,
/// as a flat dB loss on every link (a rake receiver recovers the rest).
class MultipathPenalty : public PropagationModel {
 public:
  MultipathPenalty(std::shared_ptr<const PropagationModel> base,
                   Decibels penalty);

  [[nodiscard]] LinearGain power_gain(geo::Vec2 a, geo::Vec2 b) const override;

  [[nodiscard]] Decibels penalty() const { return penalty_; }

 private:
  std::shared_ptr<const PropagationModel> base_;
  Decibels penalty_;
  LinearGain factor_;
};

/// Dual-slope (two-ray) model: free-space 1/r^2 out to a breakpoint
/// distance, then a steeper 1/r^alpha2 beyond it — the classic ground-
/// reflection behaviour of near-ground urban links. Continuous at the
/// breakpoint. Strictly more pessimistic than free space past the
/// breakpoint, so the Section 3.5 envelope argument still holds (and the
/// Section 4 interference integral CONVERGES under it, removing the
/// radio-horizon cutoff assumption — see the noise-growth tests).
class DualSlopePropagation : public PropagationModel {
 public:
  /// @param breakpoint   distance where the slope steepens.
  /// @param far_exponent alpha2 (> 2; classically 4).
  DualSlopePropagation(Meters breakpoint, double far_exponent = 4.0,
                       LinearGain reference_gain = LinearGain{1.0},
                       Meters reference_distance = Meters{1.0},
                       Meters min_distance = Meters{0.1});

  [[nodiscard]] LinearGain power_gain(geo::Vec2 a, geo::Vec2 b) const override;

  /// Gain at scalar distance r.
  [[nodiscard]] LinearGain gain_at(Meters r) const;

  [[nodiscard]] Meters breakpoint() const { return breakpoint_; }

 private:
  PowerLawPropagation near_;
  Meters breakpoint_;
  double far_exponent_;
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
