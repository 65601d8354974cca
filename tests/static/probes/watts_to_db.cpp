// MUST NOT COMPILE: A power is not a ratio; to_db() exists only on LinearGain (divide by a reference power first).
#include "common/units.hpp"

using namespace drn::units;

auto probe() { return Watts{1.0}.to_db(); }
