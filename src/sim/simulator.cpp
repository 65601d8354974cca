#include "sim/simulator.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "radio/units.hpp"

namespace drn::sim {

namespace {

std::unique_ptr<radio::InterferenceEngine> engine_from_matrix(
    radio::PropagationMatrix gains, radio::InterferenceEngineKind kind) {
  // The near/far engine needs station geometry; use the engine constructor.
  DRN_EXPECTS(kind == radio::InterferenceEngineKind::kCompensated);
  return radio::make_compensated_engine(std::move(gains));
}

std::size_t station_count_of(const radio::InterferenceEngine* engine) {
  DRN_EXPECTS(engine != nullptr);
  return engine->station_count();
}

/// Validates the config and derives the thermal floor if asked — before any
/// layer is built over it (the medium requires a finalized config).
SimulatorConfig finalized(SimulatorConfig config) {
  DRN_EXPECTS(config.despreading_channels > 0);
  DRN_EXPECTS(config.multiuser_subtract_k >= 0);
  if (config.thermal_noise_w < 0.0) {
    config.thermal_noise_w =
        radio::thermal_noise(config.criterion.bandwidth()).value();
  }
  return config;
}

}  // namespace

Simulator::Simulator(radio::PropagationMatrix gains, SimulatorConfig config)
    : Simulator(engine_from_matrix(std::move(gains), config.engine), config) {}

Simulator::Simulator(std::unique_ptr<radio::InterferenceEngine> engine,
                     SimulatorConfig config)
    : config_(finalized(config)),
      metrics_(station_count_of(engine.get())),
      medium_(std::move(engine), config_, queue_, metrics_, observers_,
              *this),
      host_(medium_.station_count(), config_.seed, queue_, metrics_, *this),
      network_(host_, metrics_) {}

Simulator::~Simulator() = default;

void Simulator::set_mac(StationId station, std::unique_ptr<MacProtocol> mac) {
  host_.set_mac(station, std::move(mac));
}

void Simulator::set_router(Router router) {
  network_.set_router(std::move(router));
}

void Simulator::add_observer(SimObserver* observer) {
  DRN_EXPECTS(observer != nullptr);
  observers_.push_back(observer);
}

void Simulator::inject(double time_s, Packet packet) {
  DRN_EXPECTS(time_s >= now_s_);
  DRN_EXPECTS(packet.source < station_count());
  DRN_EXPECTS(packet.destination < station_count());
  DRN_EXPECTS(packet.source != packet.destination);
  DRN_EXPECTS(packet.size_bits > 0.0);
  Event e;
  e.time_s = time_s;
  e.kind = EventKind::kInject;
  e.staged = network_.stage(packet);  // the event carries only the index
  queue_.push(e);
}

void Simulator::run_until(double t_end_s) {
  DRN_EXPECTS(t_end_s >= now_s_);
  host_.start_if_needed();
  // pop_if_before folds the bound test into the pop: one top inspection per
  // event instead of a next_time()/pop() pair re-reading the heap top.
  while (const auto e = queue_.pop_if_before(t_end_s)) {
    now_s_ = e->time_s;
    ++events_processed_;
    switch (e->kind) {
      case EventKind::kTransmitEnd:
        medium_.handle_transmit_end(e->tx_id);
        break;
      case EventKind::kTimer:
        host_.deliver_timer(e->station, e->cookie, e->generation);
        break;
      case EventKind::kInject:
        network_.admit(e->staged, now_s_);
        break;
      case EventKind::kTransmitStart:
        medium_.handle_transmit_start(e->tx_id);
        break;
    }
  }
  now_s_ = std::max(now_s_, t_end_s);
}

// ---------------------------------------------------------------------------
// MacContext services (context binding via the host, physics via the medium)

void Simulator::transmit(const Packet& pkt, StationId to, double power_w,
                         double start_s, double rate_bps) {
  medium_.schedule_data(self(), pkt, to, power_w, start_s, rate_bps, now_s_);
}

void Simulator::transmit_noise(double power_w, double start_s,
                               double duration_s) {
  medium_.schedule_noise(self(), power_w, start_s, duration_s, now_s_);
}

TimerHandle Simulator::set_timer(double at_s, std::uint64_t cookie) {
  DRN_EXPECTS(at_s >= now_s_);
  return host_.arm_timer(at_s, cookie);
}

bool Simulator::cancel_timer(TimerHandle h) { return queue_.cancel(h); }

bool Simulator::transmitting() const {
  return medium_.station_transmitting(host_.self());
}

double Simulator::received_power_w() const {
  return medium_.power_at(host_.self()).value();
}

double Simulator::gain_to(StationId other) const {
  DRN_EXPECTS(other < station_count());
  return medium_.gain(other, host_.self());
}

void Simulator::drop(const Packet& pkt) {
  (void)pkt;
  metrics_.record_mac_drop();
}

// ---------------------------------------------------------------------------
// RadioMedium::Client — decode outcomes route to the layer that owns them

void Simulator::on_decoded_broadcast(const Packet& packet, StationId from,
                                     StationId rx, double signal_w) {
  host_.with_station(rx, [this, &packet, from, signal_w](MacProtocol& mac) {
    mac.on_broadcast_received(*this, packet, from, signal_w);
  });
}

void Simulator::on_transmit_complete(StationId from, const Packet& packet,
                                     StationId to, bool any_delivered) {
  host_.with_station(from,
                     [this, &packet, to, any_delivered](MacProtocol& mac) {
                       mac.on_transmit_end(*this, packet, to, any_delivered);
                     });
}

// ---------------------------------------------------------------------------
// Network dynamics (src/dynamics/ drives these; quiescent otherwise)

std::size_t Simulator::deactivate_station(StationId station) {
  DRN_EXPECTS(station < station_count());
  DRN_EXPECTS(host_.station_active(station));
  DRN_EXPECTS(host_.has_mac(station));

  // RF teardown first (the medium must not upcall into a destroyed MAC):
  // scheduled transmissions vanish, airborne ones are cut short, receptions
  // in progress at the station are marked aborted.
  medium_.cancel_scheduled_from(station);
  medium_.abort_active_from(station, now_s_);
  medium_.abort_receptions_at(station);

  // Then the station side: timers, the queue that dies with the MAC, the
  // MAC itself, activation state and the generation bump.
  const std::size_t dropped = host_.teardown(station);
  medium_.release_transmitter(station, now_s_);
  return dropped;
}

void Simulator::activate_station(StationId station,
                                 std::unique_ptr<MacProtocol> mac) {
  DRN_EXPECTS(station < station_count());
  host_.activate(station, std::move(mac));
}

bool Simulator::try_move_station(StationId station, geo::Vec2 position) {
  DRN_EXPECTS(station < station_count());
  // RF-idle rule: while the station radiates, or any reception record at it
  // is open, in-flight engine state references its current gains; moving
  // underneath that state would corrupt the incremental interference sums.
  if (!medium_.rf_idle(station)) return false;
  medium_.station_moved(station, position);
  return true;
}

void Simulator::notify_clock_rate(StationId station, double delta_ppm) {
  DRN_EXPECTS(station < station_count());
  host_.notify_clock_rate(station, delta_ppm);
}

Simulator::QueueStats Simulator::queue_stats() const {
  QueueStats s;
  s.events_processed = events_processed_;
  s.pending = queue_.size();
  s.peak_entries = queue_.peak_entries();
  s.peak_bytes = queue_.peak_bytes();
  s.compactions = queue_.compactions();
  return s;
}

}  // namespace drn::sim
