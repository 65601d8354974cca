#include "core/discovery.hpp"

#include "common/expects.hpp"
#include "core/scheduled_station.hpp"
#include "radio/units.hpp"
#include "sim/simulator.hpp"

namespace drn::core {

namespace {

/// Clock samples a station needs before it trusts a neighbour: two let the
/// affine fit track drift.
constexpr std::size_t kMinClockSamples = 2;

/// The known, network-wide beacon transmit power: how receivers turn
/// received power into a gain estimate.
constexpr double kBeaconPowerW = 1.0e-4;

}  // namespace

DiscoveryStation::DiscoveryStation(DiscoveryConfig config, StationClock clock)
    : config_(config), clock_(clock) {
  DRN_EXPECTS(config.beacon_count >= 1);
  DRN_EXPECTS(config.duration_s > 0.0);
  DRN_EXPECTS(config.data_rate_bps > 0.0);
  DRN_EXPECTS(config.gain_noise_db >= 0.0);
  const double airtime = kBeaconBits / config.data_rate_bps;
  DRN_EXPECTS(config.duration_s >
              static_cast<double>(config.beacon_count) * 2.0 * airtime);
}

void DiscoveryStation::on_start(sim::MacContext& ctx) {
  // Stratify beacons over the phase with random offsets inside each stratum,
  // leaving room for the airtime so our own beacons never overlap.
  const double stratum =
      config_.duration_s / static_cast<double>(config_.beacon_count);
  const double airtime = kBeaconBits / config_.data_rate_bps;
  for (int i = 0; i < config_.beacon_count; ++i) {
    const double offset = ctx.rng().uniform(0.0, stratum - airtime);
    ctx.set_timer(static_cast<double>(i) * stratum + offset,
                  static_cast<std::uint64_t>(i));
  }
}

void DiscoveryStation::on_timer(sim::MacContext& ctx, std::uint64_t cookie) {
  (void)cookie;
  sim::Packet beacon;
  beacon.source = ctx.self();
  beacon.destination = kBroadcast;
  beacon.size_bits = kBeaconBits;
  beacon.sender_local_s = clock_.local(Seconds{ctx.now()}).value();
  // Air the beacon at the rate its receivers correct the stamp by.
  ctx.transmit(beacon, kBroadcast, kBeaconPowerW, ctx.now(),
               config_.data_rate_bps);
}

void DiscoveryStation::on_enqueue(sim::MacContext& ctx, const sim::Packet& pkt,
                                  StationId /*next_hop*/) {
  ctx.drop(pkt);  // the discovery phase carries no data traffic
}

void DiscoveryStation::on_broadcast_received(sim::MacContext& ctx,
                                             const sim::Packet& pkt,
                                             StationId from, double signal_w) {
  NeighborObservation& obs = observations_[from];

  double measured_gain = signal_w / kBeaconPowerW;
  if (config_.gain_noise_db > 0.0) {
    measured_gain *=
        radio::from_db(config_.gain_noise_db * ctx.rng().normal());
  }
  obs.gain.add(measured_gain);

  // The stamp was taken at transmission start; we hear the end, one airtime
  // later (by the sender's clock, whose rate is within ppm of ours).
  const double airtime = pkt.size_bits / config_.data_rate_bps;
  ClockSample sample;
  sample.mine_s = clock_.local(Seconds{ctx.now()}).value();
  sample.theirs_s = pkt.sender_local_s + airtime;
  obs.clock_samples.push_back(sample);
}

NeighborTable DiscoveryStation::build_neighbor_table(double min_gain) const {
  DRN_EXPECTS(min_gain >= 0.0);
  NeighborTable table;
  for (const auto& [id, obs] : observations_) {
    if (obs.clock_samples.size() < kMinClockSamples) continue;
    const double gain = obs.gain.mean();
    if (gain < min_gain) continue;
    Neighbor n;
    n.id = id;
    n.gain = gain;
    n.clock = ClockModel::fit(obs.clock_samples);
    table.add(n);
  }
  return table;
}

ScheduledNetwork discover_and_build(const radio::PropagationMatrix& gains,
                                    const radio::ReceptionCriterion& criterion,
                                    const ScheduledNetworkConfig& net_config,
                                    const DiscoveryConfig& discovery_config,
                                    Rng& rng) {
  const std::size_t m = gains.size();
  std::vector<StationClock> clocks = draw_clocks(m, net_config, rng);

  // Run the discovery phase under the real physics.
  sim::SimulatorConfig sim_cfg{criterion};
  sim_cfg.seed = rng();
  sim::Simulator sim(gains, sim_cfg);
  std::vector<DiscoveryStation*> stations(m);
  for (StationId s = 0; s < m; ++s) {
    auto mac = std::make_unique<DiscoveryStation>(discovery_config, clocks[s]);
    stations[s] = mac.get();
    sim.set_mac(s, std::move(mac));
  }
  sim.run_until(discovery_config.duration_s + 1.0);

  // Keep the neighbours whose target power is reachable within the limit.
  const double min_gain = net_config.power().min_gain();
  std::vector<NeighborTable> tables;
  tables.reserve(m);
  for (const DiscoveryStation* station : stations)
    tables.push_back(station->build_neighbor_table(min_gain));
  return assemble_scheduled_network(std::move(clocks), std::move(tables),
                                    criterion, net_config);
}

}  // namespace drn::core
