#include "radio/propagation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace drn::radio {

namespace {

/// kappa: the gain at kReferenceDistance. The Section 6.1 power-control
/// target absorbs it, so 1 loses nothing.
constexpr LinearGain kReferenceGain{1.0};
constexpr Meters kReferenceDistance{1.0};
/// Near-field clamp: closer pairs see the gain at this distance.
constexpr Meters kMinDistance{0.1};
/// Dual-slope exponent past the breakpoint (two-ray ground reflection).
constexpr double kFarExponent = 4.0;

}  // namespace

PowerLawPropagation::PowerLawPropagation(double exponent)
    : exponent_(exponent) {
  DRN_EXPECTS(exponent > 0.0);
}

LinearGain PowerLawPropagation::gain_at(Meters r) const {
  DRN_EXPECTS(r.value() >= 0.0);
  const Meters clamped = std::max(r, kMinDistance);
  return kReferenceGain * std::pow(kReferenceDistance / clamped, exponent_);
}

LinearGain PowerLawPropagation::power_gain(geo::Vec2 a, geo::Vec2 b) const {
  return gain_at(Meters{geo::distance(a, b)});
}

DualSlopePropagation::DualSlopePropagation(Meters breakpoint)
    : breakpoint_(breakpoint) {
  DRN_EXPECTS(breakpoint >= kMinDistance);
}

LinearGain DualSlopePropagation::gain_at(Meters r) const {
  DRN_EXPECTS(r.value() >= 0.0);
  if (r <= breakpoint_) return near_.gain_at(r);
  // Continuous at the breakpoint: gain(bp) * (bp/r)^alpha2.
  return near_.gain_at(breakpoint_) * std::pow(breakpoint_ / r, kFarExponent);
}

LinearGain DualSlopePropagation::power_gain(geo::Vec2 a, geo::Vec2 b) const {
  return gain_at(Meters{geo::distance(a, b)});
}

namespace {

/// Hash an unordered pair of points into a standard-normal-ish variate,
/// deterministically under `seed`. Coordinates are hashed bit-exactly; the
/// pair is ordered canonically so the result is symmetric.
double pair_normal(std::uint64_t seed, geo::Vec2 a, geo::Vec2 b) {
  const auto key = [](geo::Vec2 p) {
    return hash_u64(std::bit_cast<std::uint64_t>(p.x),
                    std::bit_cast<std::uint64_t>(p.y));
  };
  std::uint64_t ka = key(a);
  std::uint64_t kb = key(b);
  if (ka > kb) std::swap(ka, kb);
  Rng rng(hash_u64(seed, hash_u64(ka, kb)));
  return rng.normal();
}

}  // namespace

LogNormalShadowing::LogNormalShadowing(
    std::shared_ptr<const PropagationModel> base, Decibels sigma,
    std::uint64_t seed)
    : base_(std::move(base)), sigma_(sigma), seed_(seed) {
  DRN_EXPECTS(base_ != nullptr);
  DRN_EXPECTS(sigma.value() >= 0.0);
}

LinearGain LogNormalShadowing::power_gain(geo::Vec2 a, geo::Vec2 b) const {
  const double z = std::min(pair_normal(seed_, a, b), 3.0);
  const Decibels shadow = sigma_ * z;
  return base_->power_gain(a, b) * shadow.to_linear();
}

}  // namespace drn::radio
