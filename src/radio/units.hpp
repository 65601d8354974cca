// Radio-layer unit vocabulary: physical constants, the strong quantity types
// of common/units.hpp re-exported under drn::radio, and the sanctioned
// raw-double decibel converters for API boundaries.
//
// The paper reasons almost entirely in decibels ("5 dB margin", "20 to 25 dB
// of processing gain", "6 dB per doubling of distance"); the library computes
// in linear power ratios and converts at the edges. Library code should use
// the strong types (Decibels::to_linear(), LinearGain::to_db()); the raw
// to_db/from_db helpers below exist for the CLI/telemetry boundary where
// quantities arrive or leave as plain doubles, and this header is the one
// sanctioned home for them (see tools/drn_lint.py manual-db).
#pragma once

#include "common/units.hpp"

namespace drn::radio {

using units::Bits;
using units::BitsPerSecond;
using units::Decibels;
using units::Hertz;
using units::LinearGain;
using units::Meters;
using units::Seconds;
using units::Slots;
using units::Watts;

/// Boltzmann constant, J/K.
inline constexpr double kBoltzmann = 1.380649e-23;

/// Standard receiver reference temperature, K.
inline constexpr double kStandardTemperatureK = 290.0;

/// Linear power ratio -> decibels. Requires a positive ratio.
[[nodiscard]] double to_db(double linear);

/// Decibels -> linear power ratio.
[[nodiscard]] double from_db(double db);

/// Thermal noise floor kTB for the given bandwidth, at the standard 290 K
/// reference temperature. Section 4 argues this is dominated by aggregate
/// interference at scale; the simulator still includes it.
[[nodiscard]] Watts thermal_noise(Hertz bandwidth,
                                  double temperature_k = kStandardTemperatureK);

}  // namespace drn::radio
