// Tests for the pluggable interference engines: name parsing, compensated /
// nearfar agreement on shared scenarios, the near/far far-field
// approximation bound, the drift regression the compensated engine exists to
// fix, and a bit-for-bit differential of the compensated engine against a
// reference transcription of its earlier slot layout.
#include "radio/interference_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "geo/placement.hpp"
#include "radio/propagation.hpp"
#include "radio/propagation_matrix.hpp"

namespace drn::radio {
namespace {

TEST(InterferenceEngine, ParseAndNameRoundTrip) {
  for (const auto kind : {InterferenceEngineKind::kCompensated,
                          InterferenceEngineKind::kNearFar}) {
    const auto parsed = parse_engine(engine_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_engine("exact").has_value());
  EXPECT_FALSE(parse_engine("dense").has_value());  // removed engine
  EXPECT_FALSE(parse_engine("").has_value());
}

TEST(CompensatedSum, RecoversWhatPlainSummationLoses) {
  // 1 + 1e-16 added 10^4 times: plain double summation drops every tiny
  // addend; the compensated sum carries them.
  CompensatedSum sum;
  double plain = 1.0;
  sum.add(1.0);
  for (int i = 0; i < 10000; ++i) {
    sum.add(1.0e-16);
    plain += 1.0e-16;
  }
  EXPECT_DOUBLE_EQ(plain, 1.0);  // all 10^4 addends lost
  EXPECT_NEAR(sum.value(), 1.0 + 1.0e-12, 1.0e-16);
}

TEST(CompensatedSum, ExactWhenSubtractingTheLargerTerm) {
  // The transmit-end case Neumaier handles and Kahan does not: the addend
  // (the contribution being removed) dwarfs the running sum.
  CompensatedSum sum;
  sum.add(1.0e-12);
  sum.add(1.0e4);
  sum.add(-1.0e4);
  EXPECT_DOUBLE_EQ(sum.value(), 1.0e-12);
}

TEST(InterferenceEngine, MakeDenseGainsGuardsStationCount) {
  // The guard constant itself is far too large to exercise with a real
  // allocation; check the contract wiring with the documented constant.
  Rng rng(2);
  const auto placement = geo::uniform_disc(16, 200.0, rng);
  const FreeSpacePropagation model;
  const auto gains = make_dense_gains(placement, model);
  EXPECT_EQ(gains.size(), 16u);
  EXPECT_LE(gains.size(), kDenseMatrixGuardM);
}

// ---------------------------------------------------------------------------
// Engine agreement on a shared random workload.

struct Workload {
  geo::Placement placement;
  PropagationMatrix gains;
};

Workload make_workload(std::size_t stations, std::uint64_t seed) {
  Rng rng(seed);
  auto placement = geo::uniform_disc(stations, 1000.0, rng);
  const FreeSpacePropagation model;
  auto gains = make_dense_gains(placement, model);
  return {std::move(placement), std::move(gains)};
}

/// Drives `engine` through a deterministic start/open/end script and returns
/// the interference of every open reception at a few sample points.
std::vector<double> run_script(InterferenceEngine& engine,
                               std::size_t stations, std::uint64_t seed) {
  std::vector<double> samples;
  Rng rng(seed);
  std::deque<std::uint64_t> on_air;
  std::vector<std::pair<ReceptionHandle, std::uint64_t>> open;
  std::uint64_t next_tx = 1;
  const auto sender_noop = [](ReceptionHandle) {};
  const auto affected_noop = [](ReceptionHandle, Watts) {};
  for (int step = 0; step < 400; ++step) {
    const auto choice = rng() % 3;
    if (choice == 0 || on_air.size() < 2) {
      const std::uint64_t tx = next_tx++;
      const auto from = static_cast<StationId>(rng() % stations);
      const double power = 1.0e-4 * (1.0 + 1.0e-3 * static_cast<double>(
                                               rng() % 1000));
      engine.transmit_started(tx, from, Watts{power}, sender_noop,
                              affected_noop);
      on_air.push_back(tx);
      const auto rx = static_cast<StationId>(rng() % stations);
      open.emplace_back(engine.open_reception(tx, rx, nullptr), tx);
    } else if (choice == 1 && !open.empty()) {
      const auto idx = rng() % open.size();
      engine.close_reception(open[idx].first);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const std::uint64_t tx = on_air.front();
      on_air.pop_front();
      for (std::size_t i = open.size(); i-- > 0;) {
        if (open[i].second == tx) {
          engine.close_reception(open[i].first);
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      engine.transmit_ended(tx, affected_noop);
    }
    if (step % 25 == 0)
      for (const auto& [h, tx] : open) samples.push_back(engine.interference(h).value());
  }
  for (const auto& [h, tx] : open) samples.push_back(engine.interference(h).value());
  return samples;
}

TEST(InterferenceEngine, NearFarWithFullCutoffMatchesCompensated) {
  // Cutoff spanning the whole region: every interferer is in the near field,
  // so the nearfar engine must agree with the matrix engine to rounding
  // error.
  const std::size_t stations = 24;
  auto w = make_workload(stations, 43);
  const auto comp = make_compensated_engine(w.gains);
  NearFarConfig nf;
  nf.cutoff = Meters{4000.0};  // > region diameter: no far field at all
  const auto nearfar = make_nearfar_engine(
      w.placement, std::make_shared<FreeSpacePropagation>(), nf);
  comp->set_thermal_noise(Watts{1.0e-15});
  nearfar->set_thermal_noise(Watts{1.0e-15});
  EXPECT_STREQ(nearfar->name(), "nearfar");
  // Lazy gains must match the dense matrix entries exactly.
  for (StationId rx = 0; rx < stations; rx += 5)
    for (StationId tx = 0; tx < stations; ++tx)
      EXPECT_DOUBLE_EQ(nearfar->gain(rx, tx), w.gains.gain(rx, tx));
  const auto a = run_script(*comp, stations, 77);
  const auto b = run_script(*nearfar, stations, 77);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], 1.0e-9 * a[i]) << "sample " << i;
}

TEST(InterferenceEngine, NearFarFarFieldStaysWithinCellBound) {
  // Finite cutoff: far-field interferers are folded into cell aggregates.
  // The approximation replaces each far gain by the gain between cell
  // centres; with both endpoints at most cell_m * sqrt(2) / 2 from their
  // centres and separated by at least cutoff_m, the per-term relative error
  // of a 1/d^2 gain is bounded by (1 + sqrt(2) * cell_m / cutoff_m)^2 - 1.
  const std::size_t stations = 48;
  auto w = make_workload(stations, 47);
  NearFarConfig nf;
  nf.cutoff = Meters{600.0};
  nf.cell = Meters{100.0};
  const auto nearfar = make_nearfar_engine(
      w.placement, std::make_shared<FreeSpacePropagation>(), nf);
  nearfar->set_thermal_noise(Watts{1.0e-15});
  const double per_term =
      std::pow(1.0 + std::sqrt(2.0) * nf.cell.value() / nf.cutoff.value(), 2.0) - 1.0;

  std::uint64_t next_tx = 1;
  const auto noop_s = [](ReceptionHandle) {};
  const auto noop_a = [](ReceptionHandle, Watts) {};
  for (StationId from = 1; from < stations; ++from)
    nearfar->transmit_started(next_tx++, from, Watts{1.0e-4}, noop_s, noop_a);
  nearfar->transmit_started(next_tx, 0, Watts{1.0e-4}, noop_s, noop_a);
  for (StationId rx = 1; rx < stations; rx += 3) {
    const auto h = nearfar->open_reception(next_tx, rx, nullptr);
    const double engine_w = nearfar->interference(h).value();
    // Ground truth: exact lazy-gain sum over every other active transmitter.
    double exact = nearfar->thermal_noise().value();
    for (StationId from = 1; from < stations; ++from)
      if (from != rx) exact += nearfar->gain(rx, from) * 1.0e-4;
    EXPECT_NEAR(engine_w, exact, per_term * exact) << "rx " << rx;
    // The incremental value and the engine's own recomputation agree.
    EXPECT_NEAR(nearfar->recomputed_interference(h).value(), engine_w,
                1.0e-12 * engine_w);
    nearfar->close_reception(h);
  }
}

// ---------------------------------------------------------------------------
// The drift regression (ISSUE 4 satellite 1).
//
// One long-lived reception watches >= 10^4 overlapping transmissions come
// and go. A plain double running sum with subtract-and-clamp at thermal (the
// arithmetic the engines used before compensated summation) accumulates
// rounding error; CompensatedSum, and every engine built on it, stays within
// 1e-12 relative of a from-scratch recomputation throughout.

/// The drift workload: `total` loud transmissions (~1 W at the receiver,
/// with ragged mantissas so nearly every add/subtract rounds), a sliding
/// window of `overlap` concurrently on air, ended oldest first. `measure`
/// runs every 500 starts and once more after the last end.
template <typename Start, typename End, typename Measure>
void drift_workload(int total, std::size_t overlap, Start start, End end,
                    Measure measure) {
  Rng rng(4242);
  std::size_t on_air = 0;
  for (int i = 0; i < total; ++i) {
    start(1.0 + 1.0e-6 * static_cast<double>(rng() % 999983));
    if (++on_air > overlap) {
      end();
      --on_air;
    }
    if (i % 500 == 0) measure();
  }
  for (; on_air > 0; --on_air) end();
  measure();
}

/// Runs the drift workload past one reception held open for the whole run
/// and returns the worst relative error of interference() vs
/// recomputed_interference() observed at any measurement.
double churn_and_measure(InterferenceEngine& engine, int total,
                         std::size_t overlap) {
  const auto noop_s = [](ReceptionHandle) {};
  const auto noop_a = [](ReceptionHandle, Watts) {};
  // tx 1: the persistent weak interferer that keeps the true interference
  // tiny, so absolute drift from the loud churn shows up as relative error.
  engine.transmit_started(1, 1, Watts{1.0e-10}, noop_s, noop_a);
  // tx 2: the transmission being received (its own power never counts).
  engine.transmit_started(2, 0, Watts{1.0e-4}, noop_s, noop_a);
  const auto h = engine.open_reception(2, 2, nullptr);
  double worst_rel = 0.0;
  std::deque<std::uint64_t> on_air;
  std::uint64_t next_tx = 10;
  drift_workload(
      total, overlap,
      [&](double power) {
        engine.transmit_started(next_tx, 3, Watts{power}, noop_s, noop_a);
        on_air.push_back(next_tx++);
      },
      [&] {
        engine.transmit_ended(on_air.front(), noop_a);
        on_air.pop_front();
      },
      [&] {
        // At the last measurement only the 1e-10 interferer remains: any
        // leftover from the loud transmissions is pure bookkeeping drift.
        const double inc = engine.interference(h).value();
        const double exact = engine.recomputed_interference(h).value();
        worst_rel = std::max(worst_rel, std::abs(inc - exact) / exact);
      });
  engine.close_reception(h);
  return worst_rel;
}

PropagationMatrix drift_matrix() {
  // Receiver is station 2. Station 3 (the churn source) reaches it at unit
  // gain; station 1's persistent trickle and station 0's signal define the
  // tiny true residual.
  PropagationMatrix m(4);
  m.set_gain(2, 0, radio::LinearGain{1.0});
  m.set_gain(2, 1, radio::LinearGain{1.0});
  m.set_gain(2, 3, radio::LinearGain{1.0});
  return m;
}

/// Replays the drift workload on one reception's running sum outside any
/// engine (every gain is 1, so each contribution is the transmit power):
/// `plain` keeps a bare double with the old subtract-and-clamp at thermal,
/// otherwise a CompensatedSum. Returns the worst relative error against a
/// from-scratch sum over the live set.
double replay_drift(bool plain, int total, std::size_t overlap) {
  constexpr double kThermal = 1.0e-15;
  constexpr double kTrickle = 1.0e-10;  // tx 1, the persistent interferer
  double bare = kThermal + kTrickle;
  CompensatedSum comp;
  comp.add(kTrickle);
  std::deque<double> on_air;
  double worst_rel = 0.0;
  drift_workload(
      total, overlap,
      [&](double power) {
        bare += power;
        comp.add(power);
        on_air.push_back(power);
      },
      [&] {
        bare = std::max(kThermal, bare - on_air.front());
        comp.add(-on_air.front());
        on_air.pop_front();
      },
      [&] {
        CompensatedSum exact;
        exact.add(kTrickle);
        for (const double p : on_air) exact.add(p);
        const double truth = kThermal + exact.value();
        const double inc =
            plain ? bare : kThermal + std::max(0.0, comp.value());
        worst_rel = std::max(worst_rel, std::abs(inc - truth) / truth);
      });
  return worst_rel;
}

TEST(InterferenceDrift, PlainDoubleSumDriftsBeyondTolerance) {
  // The teeth of the regression test: subtract-and-clamp on a bare double is
  // measurably wrong on this workload; anything over the compensated 1e-12
  // bound demonstrates the bug.
  EXPECT_GT(replay_drift(/*plain=*/true, 10000, 16), 1.0e-12);
}

TEST(InterferenceDrift, CompensatedSumStaysExactOnTheSameOps) {
  EXPECT_LE(replay_drift(/*plain=*/false, 10000, 16), 1.0e-12);
}

TEST(InterferenceDrift, CompensatedEngineStaysExact) {
  const auto comp = make_compensated_engine(drift_matrix());
  comp->set_thermal_noise(Watts{1.0e-15});
  const double worst = churn_and_measure(*comp, 10000, 16);
  EXPECT_LE(worst, 1.0e-12);
}

TEST(InterferenceDrift, NearFarEngineStaysExactUnderChurn) {
  // Same churn through the grid-indexed path: stations placed so the churn
  // source sits in the receiver's near field.
  geo::Placement p;
  p.push_back({0.0, 0.0});    // 0: wanted sender
  p.push_back({10.0, 0.0});   // 1: persistent weak interferer
  p.push_back({5.0, 5.0});    // 2: receiver
  p.push_back({0.0, 10.0});   // 3: churn source
  NearFarConfig nf;
  nf.cutoff = Meters{100.0};
  const auto nearfar = make_nearfar_engine(
      p, std::make_shared<FreeSpacePropagation>(), nf);
  nearfar->set_thermal_noise(Watts{1.0e-15});
  const double worst = churn_and_measure(*nearfar, 10000, 16);
  EXPECT_LE(worst, 1.0e-12);
}

// ---------------------------------------------------------------------------
// Differential: the compensated engine against a reference transcription of
// its earlier layout (an id-sorted active list, and one slot per handle ever
// allocated, walked in ascending handle order with a live flag). Both must
// produce bit-identical interference, recomputed interference and carrier
// sense, and the same (handle, watts) visits per call; only the order of
// the visits may differ.

class ReferenceCompensatedEngine final : public InterferenceEngine {
 public:
  explicit ReferenceCompensatedEngine(PropagationMatrix gains)
      : gains_(std::move(gains)) {}

  [[nodiscard]] std::size_t station_count() const override {
    return gains_.size();
  }
  [[nodiscard]] const char* name() const override { return "reference"; }
  [[nodiscard]] double gain(StationId rx, StationId tx) const override {
    return gains_.gain(rx, tx);
  }

  void transmit_started(std::uint64_t tx_id, StationId from, Watts power,
                        const SenderVisitor& at_sender,
                        const AffectedVisitor& affected) override {
    const auto it = std::lower_bound(
        active_.begin(), active_.end(), tx_id,
        [](const Tx& t, std::uint64_t id) { return t.id < id; });
    active_.insert(it, Tx{tx_id, from, power.value()});
    for (ReceptionHandle h = 0; h < slots_.size(); ++h) {
      Slot& s = slots_[h];
      if (!s.live) continue;
      if (s.rx == from) {
        if (at_sender) at_sender(h);
        continue;
      }
      const double watts = gains_.gain(s.rx, from) * power.value();
      s.sum.add(watts);
      bump(s);
      if (affected) affected(h, Watts{watts});
    }
  }

  void transmit_ended(std::uint64_t tx_id,
                      const AffectedVisitor& affected) override {
    const auto it = std::find_if(active_.begin(), active_.end(),
                                 [&](const Tx& t) { return t.id == tx_id; });
    DRN_EXPECTS(it != active_.end());
    const Tx tx = *it;
    active_.erase(it);
    for (ReceptionHandle h = 0; h < slots_.size(); ++h) {
      Slot& s = slots_[h];
      if (!s.live || s.tx_id == tx_id || s.rx == tx.from) continue;
      const double watts = gains_.gain(s.rx, tx.from) * tx.power_w;
      s.sum.add(-watts);
      bump(s);
      if (affected) affected(h, Watts{watts});
    }
  }

  [[nodiscard]] ReceptionHandle open_reception(
      std::uint64_t tx_id, StationId rx,
      const ContributionVisitor& contribution) override {
    ReceptionHandle h = 0;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
    } else {
      h = static_cast<ReceptionHandle>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[h];
    s = Slot{};
    s.live = true;
    s.tx_id = tx_id;
    s.rx = rx;
    for (const Tx& other : active_) {
      if (other.id == tx_id || other.from == rx) continue;
      const double watts = gains_.gain(rx, other.from) * other.power_w;
      s.sum.add(watts);
      if (contribution) contribution(other.id, Watts{watts});
    }
    return h;
  }

  void close_reception(ReceptionHandle h) override {
    slots_.at(h).live = false;
    free_.push_back(h);
  }
  [[nodiscard]] std::size_t open_receptions() const override {
    return static_cast<std::size_t>(
        std::count_if(slots_.begin(), slots_.end(),
                      [](const Slot& s) { return s.live; }));
  }
  [[nodiscard]] Watts interference(ReceptionHandle h) const override {
    return Watts{thermal_w_ + std::max(0.0, slots_.at(h).sum.value())};
  }
  [[nodiscard]] Watts recomputed_interference(
      ReceptionHandle h) const override {
    return Watts{thermal_w_ + std::max(0.0, exact_sum(slots_.at(h)).value())};
  }
  [[nodiscard]] Watts power_at(StationId st) const override {
    CompensatedSum sum;
    for (const Tx& tx : active_) sum.add(gains_.gain(st, tx.from) * tx.power_w);
    return Watts{thermal_w_ + std::max(0.0, sum.value())};
  }

 private:
  struct Tx {
    std::uint64_t id;
    StationId from;
    double power_w;
  };
  struct Slot {
    std::uint64_t tx_id = 0;
    StationId rx = kNoStation;
    CompensatedSum sum;
    std::uint32_t ops = 0;
    bool live = false;
  };

  [[nodiscard]] CompensatedSum exact_sum(const Slot& s) const {
    CompensatedSum sum;
    for (const Tx& other : active_) {
      if (other.id == s.tx_id || other.from == s.rx) continue;
      sum.add(gains_.gain(s.rx, other.from) * other.power_w);
    }
    return sum;
  }
  void bump(Slot& s) {
    if (++s.ops >= 64) {
      s.sum = exact_sum(s);
      s.ops = 0;
    }
  }

  PropagationMatrix gains_;
  std::vector<Tx> active_;  // ascending id
  std::vector<Slot> slots_;
  std::vector<ReceptionHandle> free_;
};

/// Every visit one engine call made, sorted: the visit order is free.
struct Visits {
  std::vector<ReceptionHandle> sender;
  std::vector<std::pair<ReceptionHandle, double>> affected;

  [[nodiscard]] InterferenceEngine::SenderVisitor on_sender() {
    return [this](ReceptionHandle h) { sender.push_back(h); };
  }
  [[nodiscard]] InterferenceEngine::AffectedVisitor on_affected() {
    return [this](ReceptionHandle h, Watts w) {
      affected.emplace_back(h, w.value());
    };
  }
  void sort() {
    std::sort(sender.begin(), sender.end());
    std::sort(affected.begin(), affected.end());
  }
  bool operator==(const Visits&) const = default;
};

void expect_engines_agree(const InterferenceEngine& engine,
                          const InterferenceEngine& reference,
                          const std::vector<ReceptionHandle>& open,
                          int step) {
  ASSERT_EQ(engine.open_receptions(), reference.open_receptions())
      << "step " << step;
  for (const ReceptionHandle h : open) {
    ASSERT_EQ(engine.interference(h).value(),
              reference.interference(h).value())
        << "step " << step << " handle " << h;
    ASSERT_EQ(engine.recomputed_interference(h).value(),
              reference.recomputed_interference(h).value())
        << "step " << step << " handle " << h;
  }
  for (StationId s = 0; s < engine.station_count(); ++s)
    ASSERT_EQ(engine.power_at(s).value(), reference.power_at(s).value())
        << "step " << step << " station " << s;
}

TEST(InterferenceEngine, CompensatedMatchesReferenceLayoutBitForBit) {
  constexpr std::size_t kStations = 24;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Workload w = make_workload(kStations, seed);
    const auto engine = make_compensated_engine(w.gains);
    ReferenceCompensatedEngine reference(w.gains);
    Rng rng(seed + 100);
    struct OnAir {
      std::uint64_t id;
      StationId from;
    };
    std::vector<OnAir> on_air;
    std::vector<std::pair<ReceptionHandle, std::uint64_t>> open;
    // Transmission 1 stays on the air throughout and its receptions close
    // only rarely, so they live through many exact rebuilds.
    on_air.push_back({1, 0});
    engine->transmit_started(1, 0, Watts{1.0e-4}, nullptr, nullptr);
    reference.transmit_started(1, 0, Watts{1.0e-4}, nullptr, nullptr);
    std::uint64_t next_tx = 2;
    std::size_t sender_visits = 0;
    std::size_t reused = 0;
    std::vector<bool> ever_used;
    std::vector<int> updates;  // per handle, since it opened
    int most_updates = 0;
    const auto count = [&](const Visits& v) {
      for (const auto& [h, watts] : v.affected)
        most_updates = std::max(most_updates, ++updates[h]);
    };
    const auto open_handles = [&] {
      std::vector<ReceptionHandle> hs;
      for (const auto& [h, tx] : open) hs.push_back(h);
      return hs;
    };
    const auto close = [&](std::size_t idx) {
      engine->close_reception(open[idx].first);
      reference.close_reception(open[idx].first);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(idx));
    };
    for (int step = 0; step < 3000; ++step) {
      const auto choice = rng() % 100;
      if (choice < 30 && on_air.size() < 12) {
        const OnAir tx{next_tx++, static_cast<StationId>(rng() % kStations)};
        // Powers over fourteen decades, so sums mix loud and faint terms.
        const double power =
            std::pow(10.0, -12.0 + 14.0 * static_cast<double>(rng() % 1000) /
                                       1000.0);
        Visits got;
        Visits want;
        engine->transmit_started(tx.id, tx.from, Watts{power},
                                 got.on_sender(), got.on_affected());
        reference.transmit_started(tx.id, tx.from, Watts{power},
                                   want.on_sender(), want.on_affected());
        got.sort();
        want.sort();
        ASSERT_EQ(got, want) << "start at step " << step;
        sender_visits += got.sender.size();
        count(got);
        on_air.push_back(tx);
      } else if (choice < 70 && !on_air.empty()) {
        const OnAir& tx = on_air[rng() % on_air.size()];
        // Every fourth reception sits at the transmission's own sender:
        // the medium never opens one there, but the engine must still skip
        // it symmetrically on start and end.
        const auto rx = rng() % 4 == 0
                            ? tx.from
                            : static_cast<StationId>(rng() % kStations);
        std::vector<std::pair<std::uint64_t, double>> got;
        std::vector<std::pair<std::uint64_t, double>> want;
        const bool track = rng() % 2 == 0;
        const ReceptionHandle h = engine->open_reception(
            tx.id, rx,
            track ? InterferenceEngine::ContributionVisitor(
                        [&](std::uint64_t id, Watts watts) {
                          got.emplace_back(id, watts.value());
                        })
                  : nullptr);
        const ReceptionHandle r = reference.open_reception(
            tx.id, rx,
            track ? InterferenceEngine::ContributionVisitor(
                        [&](std::uint64_t id, Watts watts) {
                          want.emplace_back(id, watts.value());
                        })
                  : nullptr);
        ASSERT_EQ(h, r) << "open at step " << step;
        EXPECT_EQ(got, want) << "contributions at step " << step;
        if (h < ever_used.size()) {
          ++reused;
        } else {
          ever_used.resize(h + 1);
          updates.resize(h + 1);
        }
        updates[h] = 0;
        open.emplace_back(h, tx.id);
      } else if (choice < 85 && !open.empty()) {
        const auto idx = rng() % open.size();
        if (open[idx].second != 1 || rng() % 20 == 0) close(idx);
      } else if (on_air.size() > 1) {
        const auto idx = 1 + rng() % (on_air.size() - 1);
        const std::uint64_t id = on_air[idx].id;
        on_air.erase(on_air.begin() + static_cast<std::ptrdiff_t>(idx));
        Visits got;
        Visits want;
        engine->transmit_ended(id, got.on_affected());
        reference.transmit_ended(id, want.on_affected());
        got.sort();
        want.sort();
        ASSERT_EQ(got, want) << "end at step " << step;
        count(got);
        // The medium closes a transmission's receptions at its end, in a
        // random order here so swap-removal moves arbitrary slots.
        std::vector<std::size_t> mine;
        for (std::size_t i = 0; i < open.size(); ++i)
          if (open[i].second == id) mine.push_back(i);
        while (!mine.empty()) {
          const auto pick = rng() % mine.size();
          const std::size_t i = mine[pick];
          close(i);
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
          for (std::size_t& j : mine)
            if (j > i) --j;
        }
      }
      expect_engines_agree(*engine, reference, open_handles(), step);
      if (HasFatalFailure()) return;
    }
    // The script must have exercised what it claims to.
    EXPECT_GT(sender_visits, 0u);
    EXPECT_GT(reused, 100u);
    EXPECT_GT(most_updates, 4 * 64);
  }
}

}  // namespace
}  // namespace drn::radio
