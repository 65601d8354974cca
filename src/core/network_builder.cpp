#include "core/network_builder.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "core/clock_model.hpp"

namespace drn::core {

namespace {

/// Seed of the schedule hash, the same at every station (Section 7.1).
constexpr std::uint64_t kScheduleSeed = 0x5ced5ced;
/// Clock offsets are uniform over [0, this): about 11.6 days, so slots are
/// unaligned across stations (Section 7.1).
constexpr double kMaxClockOffsetS = 1.0e6;
/// Ground-truth rendezvous: every pair exchanges this many clock readings,
/// evenly spread over this span, ending one slot before the run starts.
constexpr std::size_t kRendezvousCount = 4;
constexpr double kRendezvousSpanS = 120.0;

}  // namespace

std::vector<StationClock> draw_clocks(std::size_t count,
                                      const ScheduledNetworkConfig& config,
                                      Rng& rng) {
  std::vector<StationClock> clocks;
  clocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    clocks.push_back(StationClock::random(rng, Seconds{kMaxClockOffsetS},
                                          config.max_drift_ppm));
  return clocks;
}

ScheduledNetwork assemble_scheduled_network(
    std::vector<StationClock> clocks, std::vector<NeighborTable> tables,
    const radio::ReceptionCriterion& criterion,
    const ScheduledNetworkConfig& config) {
  DRN_EXPECTS(config.slot_s > 0.0);
  DRN_EXPECTS(config.receive_fraction > 0.0 && config.receive_fraction < 1.0);
  DRN_EXPECTS(config.packet_fraction > 0.0);
  DRN_EXPECTS(config.guard_fraction >= 0.0);
  DRN_EXPECTS(config.packet_fraction + 2.0 * config.guard_fraction <= 1.0);
  DRN_EXPECTS(config.target_received_w > 0.0);
  DRN_EXPECTS(config.max_power_w > 0.0);
  DRN_EXPECTS(tables.size() == clocks.size());

  const std::size_t m = clocks.size();
  ScheduledNetwork net{
      Schedule(kScheduleSeed, config.slot_s, config.receive_fraction),
      std::move(clocks),
      std::vector<std::vector<StationId>>(m),
      {},
      config.packet_fraction * config.slot_s,
      0.0,
      (units::Watts{config.target_received_w} / criterion.required_snr())
          .value()};
  net.packet_bits = criterion.data_rate_bps() * net.packet_airtime_s;

  const PowerControl power = config.power();
  net.macs.reserve(m);
  for (StationId i = 0; i < m; ++i) {
    NeighborTable& table = tables[i];
    // Worst-case power this station may radiate: enough to reach its
    // weakest neighbour. Used for the Section-7.3 significance test.
    double worst_power = 0.0;
    for (const Neighbor& n : table.all()) {
      net.neighbors[i].push_back(n.id);
      worst_power = std::max(worst_power, power.transmit_power_w(n.gain));
    }
    for (std::uint32_t k = 0; k < table.size(); ++k) {
      Neighbor& n = table.at_position(k);
      n.respect_receive_windows =
          config.respect_third_party_windows &&
          interferes_significantly(n.gain, worst_power,
                                   net.interference_budget_w);
    }

    ScheduledStationConfig sc{
        .schedule = net.schedule,
        .clock = net.clocks[i],
        .packet_airtime_s = net.packet_airtime_s,
        .guard_s = config.guard_fraction * config.slot_s,
        .power = power,
        .interference_budget_w = net.interference_budget_w};
    if (config.beacon_interval_s > 0.0) {
      sc.data_rate_bps = criterion.data_rate_bps();
      sc.beacon_interval_s = config.beacon_interval_s;
      sc.neighbor_timeout_s = config.neighbor_timeout_s;
      sc.readopt_neighbors = config.readopt_neighbors;
    }
    net.macs.push_back(std::make_unique<ScheduledStation>(sc, std::move(table)));
  }
  return net;
}

ScheduledNetwork build_scheduled_network(
    const radio::PropagationMatrix& gains,
    const radio::ReceptionCriterion& criterion,
    const ScheduledNetworkConfig& config, Rng& rng) {
  const std::size_t m = gains.size();
  std::vector<StationClock> clocks = draw_clocks(m, config, rng);

  // Rendezvous schedule shared by every pair (relative global times < 0, i.e.
  // before the simulation starts).
  std::vector<double> rendezvous_times;
  rendezvous_times.reserve(kRendezvousCount);
  for (std::size_t k = 0; k < kRendezvousCount; ++k) {
    const double frac =
        static_cast<double>(k) / static_cast<double>(kRendezvousCount - 1);
    rendezvous_times.push_back(-kRendezvousSpanS * (1.0 - frac) -
                               config.slot_s);
  }

  // Neighbours: every station the reach rule admits, in id order — the
  // order the rendezvous draws are taken in, in one serial pass.
  const auto reachable = gains.neighbors_at_least(config.power().min_gain());
  std::vector<NeighborTable> tables(m);
  for (StationId i = 0; i < m; ++i) {
    for (StationId j : reachable[i]) {
      const double g = gains.gain(i, j);
      Neighbor nb;
      nb.id = j;
      nb.gain = g;
      nb.clock = config.exact_clock_models
                     ? ClockModel::exact(clocks[i], clocks[j])
                     : ClockModel::fit(rendezvous(clocks[i], clocks[j],
                                                  rendezvous_times,
                                                  config.rendezvous_noise_s,
                                                  rng));
      tables[i].add(nb);
    }
  }
  return assemble_scheduled_network(std::move(clocks), std::move(tables),
                                    criterion, config);
}

}  // namespace drn::core
