// MUST COMPILE: the legal unit algebra, exercised end to end. This probe
// is the meta-test for the negative-compile harness: if the harness has a
// broken include path or compiler line, this probe fails too and the
// static_units_well_formed test catches it (instead of every MUST-NOT
// probe silently "passing" by failing for the wrong reason).
#include "common/units.hpp"

using namespace drn::units;

static_assert((Seconds{1.5} + Seconds{0.5}).value() == 2.0);
static_assert((Watts{2.0} / Watts{4.0}).value() == 0.5);
static_assert((Watts{2.0} * LinearGain{0.25}).value() == 0.5);
static_assert((Hertz{2.0e8} / BitsPerSecond{1.0e6}).value() == 200.0);
static_assert((Bits{1.0e4} / BitsPerSecond{2.0e6}).value() == 0.005);
static_assert((Slots{4.76} * Seconds{0.01}).value() > 0.047);

double runtime_bridges() {
  // The only dB <-> linear bridges, spelled out.
  const LinearGain g = Decibels{5.0}.to_linear();
  const Decibels d = LinearGain{200.0}.to_db();
  return g.value() + d.value();
}

int main() { return runtime_bridges() > 0.0 ? 0 : 1; }
