#include "radio/units.hpp"

#include "common/expects.hpp"

namespace drn::radio {

double to_db(double linear) { return LinearGain{linear}.to_db().value(); }

double from_db(double db) { return Decibels{db}.to_linear().value(); }

Watts thermal_noise(Hertz bandwidth, double temperature_k) {
  DRN_EXPECTS(bandwidth.value() > 0.0);
  DRN_EXPECTS(temperature_k > 0.0);
  return Watts{kBoltzmann * temperature_k * bandwidth.value()};
}

}  // namespace drn::radio
