// Zero-overhead dimensional-analysis layer for the paper's physics.
//
// Every headline quantity in the paper is dimensional — the SINR threshold
// beta * (2^(C/W) - 1) of Eq. 3-6, the S/N = 1/(eta ln M) scaling law of
// Eq. 15, the W/C processing gain of Section 6 — and a silent dB-vs-linear,
// power-vs-gain or seconds-vs-slots mixup produces plausible-but-wrong curves
// that no runtime test reliably catches. Every unit below is one
// Quantity<Tag>: it wraps exactly one double (so codegen is identical to raw
// doubles) and permits only the dimensionally valid operations. Like
// quantities add, subtract, negate, scale by a double and order; the ratio of
// two like quantities is a plain double, except that a power ratio (an SINR)
// and a gain ratio are LinearGain. Across dimensions only these exist:
//
//   Watts * LinearGain       -> Watts             (received power S = P h^2)
//   Hertz / BitsPerSecond    -> LinearGain        (processing gain W/C, Sec 6)
//   Bits  / BitsPerSecond    -> Seconds           (packet airtime)
//   Slots * Seconds          -> Seconds           (schedule position, Sec 7)
//   Decibels::to_linear()    -> LinearGain        (explicit, at the boundary)
//   LinearGain::to_db()      -> Decibels          (explicit, at the boundary)
//
// and the invalid ones are rejected at compile time: Decibels + Watts,
// Meters / Seconds, Watts * Watts, Watts::to_db(), implicit wrap/unwrap of
// raw doubles. tests/static/ keeps a probe per rejected operation under
// try_compile, so the "does not compile" contract is itself tested.
//
// Construction from a raw double is always explicit and extraction is always
// a spelled-out .value(): the boundary where unit discipline starts and ends
// is grep-able. Equality operators are deliberately deleted — exact == on a
// computed physical quantity is almost always a bug (see drn_lint float-eq);
// compare with <, <=, >, >= or extract values and use a tolerance.
#pragma once

#include <cmath>
#include <concepts>
#include <string>
#include <type_traits>

#include "common/expects.hpp"

namespace drn::units {

/// Time in seconds: slot durations, airtimes, clock readings (Section 7).
struct SecondsTag {
  static constexpr const char* kSymbol = "s";
};
/// Distance in metres: ranges r, region radii, the characteristic length
/// R0 = 1/sqrt(sigma) of Section 4.
struct MetersTag {
  static constexpr const char* kSymbol = "m";
};
/// Linear power in watts: transmit power P, received signal S, noise and
/// interference N of Eq. 5-6.
struct WattsTag {
  static constexpr const char* kSymbol = "W";
};
/// Dimensionless linear power ratio: path gains h^2 (Section 3.3), SINR
/// (Eq. 5-6), processing gain W/C (Section 6), margins in linear form.
struct LinearGainTag {
  static constexpr const char* kSymbol = "x";
};
/// Relative power ratio in decibels: the 5 dB margin beta of Eq. 4, shadowing
/// sigma, the "6 dB per doubling of distance" of Section 3.3. Never added to
/// a linear quantity; convert explicitly with to_linear().
struct DecibelsTag {
  static constexpr const char* kSymbol = "dB";
};
/// Bandwidth in hertz: the spread-spectrum bandwidth W of Eq. 3.
struct HertzTag {
  static constexpr const char* kSymbol = "Hz";
};
/// Data rate in bits/second: the channel capacity C of Eq. 3.
struct BitsPerSecondTag {
  static constexpr const char* kSymbol = "bit/s";
};
/// Packet length in bits.
struct BitsTag {
  static constexpr const char* kSymbol = "bit";
};
/// Dimensionless count of schedule slots (Section 7): a position or wait in
/// the slot grid, distinct from the seconds it spans until multiplied by a
/// slot duration.
struct SlotsTag {
  static constexpr const char* kSymbol = "slots";
};

/// One double carrying the dimension named by `Tag`.
template <class Tag>
class Quantity {
  // A power ratio is an SINR / relative level (Eq. 5-6), and cascaded gains
  // divide to a gain; every other like-over-like ratio is a plain number.
  using Ratio = std::conditional_t<std::same_as<Tag, WattsTag> ||
                                       std::same_as<Tag, LinearGainTag>,
                                   Quantity<LinearGainTag>, double>;

 public:
  constexpr Quantity() = default;
  explicit constexpr Quantity(double value) : value_(value) {}
  [[nodiscard]] constexpr double value() const { return value_; }

  // The only bridges between the decibel and linear worlds. Formulas are
  // bit-identical to the historical radio/units.hpp helpers so migrating a
  // call site never changes a result.

  /// Linear ratio -> decibels, 10 log10(ratio). Requires a positive ratio.
  [[nodiscard]] Quantity<DecibelsTag> to_db() const
    requires std::same_as<Tag, LinearGainTag>
  {
    DRN_EXPECTS(value_ > 0.0);
    return Quantity<DecibelsTag>{10.0 * std::log10(value_)};
  }

  /// Decibels -> linear power ratio, 10^(dB/10).
  [[nodiscard]] Quantity<LinearGainTag> to_linear() const
    requires std::same_as<Tag, DecibelsTag>
  {
    return Quantity<LinearGainTag>{std::pow(10.0, value_ / 10.0)};
  }

  [[nodiscard]] friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.value_ + b.value_};
  }
  [[nodiscard]] friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.value_ - b.value_};
  }
  [[nodiscard]] friend constexpr Quantity operator-(Quantity a) {
    return Quantity{-a.value_};
  }
  [[nodiscard]] friend constexpr Quantity operator*(Quantity a, double k) {
    return Quantity{a.value_ * k};
  }
  [[nodiscard]] friend constexpr Quantity operator*(double k, Quantity a) {
    return Quantity{k * a.value_};
  }
  [[nodiscard]] friend constexpr Quantity operator/(Quantity a, double k) {
    return Quantity{a.value_ / k};
  }
  [[nodiscard]] friend constexpr Ratio operator/(Quantity a, Quantity b) {
    return Ratio{a.value_ / b.value_};
  }
  friend bool operator==(Quantity, Quantity) = delete;
  [[nodiscard]] friend constexpr bool operator<(Quantity a, Quantity b) {
    return a.value_ < b.value_;
  }
  [[nodiscard]] friend constexpr bool operator<=(Quantity a, Quantity b) {
    return a.value_ <= b.value_;
  }
  [[nodiscard]] friend constexpr bool operator>(Quantity a, Quantity b) {
    return a.value_ > b.value_;
  }
  [[nodiscard]] friend constexpr bool operator>=(Quantity a, Quantity b) {
    return a.value_ >= b.value_;
  }

 private:
  double value_ = 0.0;
};

using Seconds = Quantity<SecondsTag>;
using Meters = Quantity<MetersTag>;
using Watts = Quantity<WattsTag>;
using LinearGain = Quantity<LinearGainTag>;
using Decibels = Quantity<DecibelsTag>;
using Hertz = Quantity<HertzTag>;
using BitsPerSecond = Quantity<BitsPerSecondTag>;
using Bits = Quantity<BitsTag>;
using Slots = Quantity<SlotsTag>;

// --- Cross-dimension algebra ---------------------------------------------

/// Received power S = P * h^2 (Section 3.3).
[[nodiscard]] constexpr Watts operator*(Watts p, LinearGain g) {
  return Watts{p.value() * g.value()};
}
[[nodiscard]] constexpr Watts operator*(LinearGain g, Watts p) {
  return Watts{g.value() * p.value()};
}
[[nodiscard]] constexpr Watts operator/(Watts p, LinearGain g) {
  return Watts{p.value() / g.value()};
}
/// Cascaded gains multiply in linear space (Section 3.3).
[[nodiscard]] constexpr LinearGain operator*(LinearGain a, LinearGain b) {
  return LinearGain{a.value() * b.value()};
}

/// Processing gain W/C (Section 6): how far the signal is spread.
[[nodiscard]] constexpr LinearGain operator/(Hertz w, BitsPerSecond c) {
  return LinearGain{w.value() / c.value()};
}
/// Inverse of the processing-gain ratio: the raw chip-budget data rate
/// C = W / G a spread of gain G leaves over bandwidth W (Sec. 6).
[[nodiscard]] constexpr BitsPerSecond operator/(Hertz w, LinearGain g) {
  return BitsPerSecond{w.value() / g.value()};
}
/// Spectral rate fraction C/W of Eq. 3-4 (bits/s/Hz), dimensionless.
[[nodiscard]] constexpr double operator/(BitsPerSecond c, Hertz w) {
  return c.value() / w.value();
}

/// Packet airtime: length over rate.
[[nodiscard]] constexpr Seconds operator/(Bits n, BitsPerSecond c) {
  return Seconds{n.value() / c.value()};
}
/// Rate needed to move `n` bits in a given time.
[[nodiscard]] constexpr BitsPerSecond operator/(Bits n, Seconds t) {
  return BitsPerSecond{n.value() / t.value()};
}
/// Bits moved at a rate over a duration.
[[nodiscard]] constexpr Bits operator*(BitsPerSecond c, Seconds t) {
  return Bits{c.value() * t.value()};
}
[[nodiscard]] constexpr Bits operator*(Seconds t, BitsPerSecond c) {
  return Bits{t.value() * c.value()};
}

/// A slot count times a slot duration is a span of time (Section 7).
[[nodiscard]] constexpr Seconds operator*(Slots n, Seconds slot) {
  return Seconds{n.value() * slot.value()};
}
[[nodiscard]] constexpr Seconds operator*(Seconds slot, Slots n) {
  return Seconds{slot.value() * n.value()};
}

// --- Formatting (units.cpp) ----------------------------------------------
//
// Human-readable "value unit" strings for reports and diagnostics; the
// simulator's machine outputs stay raw doubles.

namespace detail {
[[nodiscard]] std::string with_symbol(double value, const char* symbol);
}  // namespace detail

template <class Tag>
[[nodiscard]] std::string format(Quantity<Tag> q) {
  return detail::with_symbol(q.value(), Tag::kSymbol);
}

}  // namespace drn::units
