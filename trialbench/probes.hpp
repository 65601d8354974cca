// Tracing probes for the trial benchmark. Each probe sits at one public seam
// of the library and forwards every call unchanged while it counts calls and
// times them:
//
//   ProbeEngine       radio::InterferenceEngine decorator, handed to
//                     Simulator(std::unique_ptr<InterferenceEngine>, cfg).
//   CountingObserver  sim::SimObserver: what RadioMedium put on the air and
//                     how each reception ended.
//   ProbeMac          sim::MacProtocol wrapper; its hooks receive a
//                     ProbeContext that counts the MacContext services used.
//   wrap_router       NetworkLayer's Router closure.
//   wrap_rejoin       the DynamicsEngine's churn rejoin factory.
//
// Nothing here changes what the simulator computes: a traced trial must
// reproduce the untraced TrialResult exactly (main.cpp checks it).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "dynamics/dynamics.hpp"
#include "radio/interference_engine.hpp"
#include "sim/mac.hpp"
#include "sim/network_layer.hpp"
#include "sim/observer.hpp"

namespace trialbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Calls into one hook or interface method, and the time spent inside it
/// minus any timed callback it made (its self time).
struct Span {
  std::uint64_t calls = 0;
  double self_s = 0.0;
};

/// Every count and self time the probes record over one trial.
struct LayerCounters {
  // InterferenceEngine (ProbeEngine).
  Span tx_started, tx_ended, open_rx;
  std::uint64_t close_rx = 0;
  std::uint64_t interference = 0;
  std::uint64_t gain = 0;
  std::uint64_t power_at = 0;
  std::uint64_t affected_visits = 0;
  std::uint64_t sender_visits = 0;
  /// Time inside the medium's visitor callbacks (SINR re-tests, Type-3
  /// marking), which the engine spans exclude from their self time.
  double visitor_s = 0.0;

  // RadioMedium (CountingObserver).
  std::uint64_t tx_unicast = 0, tx_broadcast = 0, tx_noise = 0;
  std::uint64_t tx_aborted = 0;
  std::uint64_t rx_completed = 0, rx_delivered = 0;
  std::uint64_t rx_type1 = 0, rx_type2 = 0, rx_type3 = 0, rx_aborted = 0;
  /// Receptions completed for broadcast transmissions.
  std::uint64_t rx_of_broadcast = 0;

  // MacProtocol hooks and MacContext services (ProbeMac / ProbeContext).
  Span on_start, on_enqueue, on_timer, on_transmit_end, on_broadcast_received;
  std::uint64_t ctx_transmit = 0, ctx_set_timer = 0, ctx_cancel_timer = 0;

  // NetworkLayer router and DynamicsEngine rejoin factory.
  Span route;
  Span rejoin;

  /// Self time of every probed span inside the event loop.
  [[nodiscard]] double probed_loop_s() const;
};

class ProbeEngine final : public drn::radio::InterferenceEngine {
 public:
  /// `thermal` must be the floor the simulator will derive for its config:
  /// set_thermal_noise is not virtual, so the medium's call reaches only
  /// this decorator and the wrapped engine has to be given the floor here.
  ProbeEngine(std::unique_ptr<drn::radio::InterferenceEngine> inner,
              drn::radio::Watts thermal, LayerCounters& counters);

  /// The decorated engine (to check that its floor is the medium's).
  [[nodiscard]] const drn::radio::InterferenceEngine& inner() const {
    return *inner_;
  }

  [[nodiscard]] std::size_t station_count() const override;
  [[nodiscard]] const char* name() const override;
  [[nodiscard]] double gain(drn::StationId rx,
                            drn::StationId tx) const override;
  void transmit_started(std::uint64_t tx_id, drn::StationId from,
                        drn::radio::Watts power,
                        const SenderVisitor& at_sender,
                        const AffectedVisitor& affected) override;
  void transmit_ended(std::uint64_t tx_id,
                      const AffectedVisitor& affected) override;
  [[nodiscard]] drn::radio::ReceptionHandle open_reception(
      std::uint64_t tx_id, drn::StationId rx,
      const ContributionVisitor& contribution) override;
  void close_reception(drn::radio::ReceptionHandle h) override;
  [[nodiscard]] std::size_t open_receptions() const override;
  [[nodiscard]] drn::radio::Watts interference(
      drn::radio::ReceptionHandle h) const override;
  [[nodiscard]] drn::radio::Watts recomputed_interference(
      drn::radio::ReceptionHandle h) const override;
  [[nodiscard]] drn::radio::Watts power_at(drn::StationId s) const override;
  void station_moved(drn::StationId s, drn::geo::Vec2 position) override;
  void enable_mobility(
      drn::geo::Placement placement,
      std::shared_ptr<const drn::radio::PropagationModel> model,
      drn::radio::LinearGain self_gain) override;

 private:
  std::unique_ptr<drn::radio::InterferenceEngine> inner_;
  LayerCounters& c_;
};

class CountingObserver final : public drn::sim::SimObserver {
 public:
  explicit CountingObserver(LayerCounters& counters) : c_(counters) {}
  void on_transmit_start(const drn::sim::TxEvent& tx) override;
  void on_reception_complete(const drn::sim::RxEvent& rx) override;
  void on_transmit_aborted(const drn::sim::TxEvent& tx,
                           double time_s) override;

 private:
  LayerCounters& c_;
  /// Indexed by tx_id: whether that transmission was a broadcast.
  std::vector<bool> broadcast_;
};

class ProbeMac final : public drn::sim::MacProtocol {
 public:
  ProbeMac(std::unique_ptr<drn::sim::MacProtocol> inner,
           LayerCounters& counters)
      : inner_(std::move(inner)), c_(counters) {}

  void on_start(drn::sim::MacContext& ctx) override;
  void on_enqueue(drn::sim::MacContext& ctx, const drn::sim::Packet& pkt,
                  drn::StationId next_hop) override;
  void on_timer(drn::sim::MacContext& ctx, std::uint64_t cookie) override;
  void on_transmit_end(drn::sim::MacContext& ctx, const drn::sim::Packet& pkt,
                       drn::StationId to, bool delivered) override;
  void on_broadcast_received(drn::sim::MacContext& ctx,
                             const drn::sim::Packet& pkt, drn::StationId from,
                             double signal_w) override;
  [[nodiscard]] std::size_t queued_packets() const override;
  void on_clock_rate_changed(drn::sim::MacContext& ctx,
                             double delta_ppm) override;

 private:
  std::unique_ptr<drn::sim::MacProtocol> inner_;
  LayerCounters& c_;
};

[[nodiscard]] drn::sim::Router wrap_router(drn::sim::Router inner,
                                           LayerCounters& counters);

/// Wraps the factory so that it is timed and every MAC it builds is a
/// ProbeMac too.
[[nodiscard]] drn::dynamics::MacFactory wrap_rejoin(
    drn::dynamics::MacFactory inner, LayerCounters& counters);

}  // namespace trialbench
