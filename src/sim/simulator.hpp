// The event-driven radio network simulator — a thin facade over three
// internally-owned layers (see DESIGN.md section 13):
//
//   * sim::RadioMedium (medium.hpp): the physical channel. Propagation
//     gains served by a pluggable interference engine, incremental
//     interference sums (Eq. 5-6), the SINR decode test (Eq. 4), the
//     Section 5 loss taxonomy and despreading-channel admission, broadcast
//     fan-out, per-transmission rates and multiuser subtraction.
//   * sim::StationHost (station_host.hpp): the stations. MAC instances,
//     per-station RNG streams, timers, activation state (churn), and the
//     context binding for every MAC hook.
//   * sim::NetworkLayer (network_layer.hpp): Section 6.2 forwarding. The
//     router, end-to-end delivery accounting, and injected traffic: each
//     injected packet is staged there, and its kInject event carries only
//     the staging index.
//
// The event core (event_queue) is owned here and shared by reference; the
// facade runs the event loop and dispatches each popped event to its layer.
// Decode outcomes climb back up through the private RadioMedium::Client
// implementation, which routes them to the receiving MAC or the network
// layer at exactly the points the historical monolithic Simulator invoked
// them — the split is draw-for-draw bit-identical, pinned by the event-order
// golden digests (tests/integration).
//
// Facade guarantee: the public Simulator API is unchanged by the layering —
// every pre-split caller (MACs via MacContext, runners, benches, dynamics,
// audits) compiles and behaves identically. The layers are reachable
// read-only via medium()/host()/network() for tests and tools that want to
// assert through the seams.
//
// Extensions beyond the base model — broadcast fan-out, per-transmission
// rates, multiuser detection, network dynamics (churn/mobility/drift/
// jammers) — are documented on the layer that owns each (medium.hpp,
// station_host.hpp) and are all off by default / opt-in.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "geo/vec2.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation_matrix.hpp"
#include "radio/reception.hpp"
#include "sim/event_queue.hpp"
#include "sim/mac.hpp"
#include "sim/medium.hpp"
#include "sim/metrics.hpp"
#include "sim/network_layer.hpp"
#include "sim/observer.hpp"
#include "sim/packet.hpp"
#include "sim/station_host.hpp"

namespace drn::sim {

class Simulator final : public MacContext, private RadioMedium::Client {
 public:
  /// Builds the compensated matrix engine over `gains` (config.engine must
  /// name it).
  Simulator(radio::PropagationMatrix gains, SimulatorConfig config);
  /// Adopts a ready-made engine (the only route to the near/far engine).
  Simulator(std::unique_ptr<radio::InterferenceEngine> engine,
            SimulatorConfig config);
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Installs the MAC driving `station`. Every station needs one before run.
  void set_mac(StationId station, std::unique_ptr<MacProtocol> mac);

  /// Installs the next-hop chooser. Default: one-hop direct to destination.
  void set_router(Router router);

  /// Adds a passive observer alongside any already installed (not owned).
  /// Observers are notified in installation order.
  void add_observer(SimObserver* observer);

  /// Schedules a packet to enter the network at its source at `time_s`. The
  /// network layer keeps a copy until the Simulator is destroyed (see
  /// NetworkLayer::stage).
  void inject(double time_s, Packet packet);

  /// Runs until the event queue drains or simulated time exceeds `t_end_s`.
  /// Calls each MAC's on_start once on the first run() call.
  void run_until(double t_end_s);

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] std::size_t station_count() const {
    return medium_.station_count();
  }
  [[nodiscard]] const radio::InterferenceEngine& engine() const {
    return medium_.engine();
  }
  [[nodiscard]] const SimulatorConfig& config() const { return config_; }

  /// Number of transmissions currently in flight (for tests).
  [[nodiscard]] std::size_t active_transmissions() const {
    return medium_.active_count();
  }

  // -- the layers (read-only seams for tests/tools) -------------------------
  [[nodiscard]] const RadioMedium& medium() const { return medium_; }
  [[nodiscard]] const StationHost& host() const { return host_; }
  [[nodiscard]] const NetworkLayer& network() const { return network_; }

  /// Event-core counters (benches and regression tests; see DESIGN.md
  /// section 12). Cheap snapshot — callable mid-run.
  struct QueueStats {
    /// Events popped and handled since construction.
    std::uint64_t events_processed = 0;
    /// Live entries waiting in the queue right now.
    std::size_t pending = 0;
    /// High-water mark of heap entries (live + tombstones).
    std::size_t peak_entries = 0;
    /// High-water mark of queue memory (heap items + slot headers), bytes.
    std::size_t peak_bytes = 0;
    /// Tombstone-compaction passes the queue has run.
    std::uint64_t compactions = 0;
  };
  [[nodiscard]] QueueStats queue_stats() const;

  // -- network dynamics (driven by src/dynamics/) --------------------------

  /// Whether `station` is up (participating in the network). All stations
  /// start active; only deactivate_station changes this.
  [[nodiscard]] bool station_active(StationId station) const {
    return host_.station_active(station);
  }

  /// Tears `station` down mid-run (crash/leave): cancels its scheduled
  /// transmissions, aborts any transmission it has on the air (receivers see
  /// LossType::kAborted), marks receptions in progress at it as aborted,
  /// destroys its MAC (the queue dies with it) and invalidates its pending
  /// timers. Returns the number of queued packets lost.
  std::size_t deactivate_station(StationId station);

  /// Brings a deactivated `station` back up with a fresh MAC. If the
  /// simulation has started, the MAC's on_start runs immediately.
  void activate_station(StationId station, std::unique_ptr<MacProtocol> mac);

  /// Relocates `station` to `position` (mobility). Refused (returns false)
  /// while the station is radiating or any reception record at it is open:
  /// in-flight interference accounting references its current gains, and
  /// moving underneath it would corrupt the engine's incremental sums. The
  /// mobility model simply retries at its next tick.
  bool try_move_station(StationId station, geo::Vec2 position);

  /// Delivers a clock-rate change of `delta_ppm` (relative to the current
  /// rate) to `station`'s MAC — the dynamics drift-ramp entry point.
  void notify_clock_rate(StationId station, double delta_ppm);

  // -- MacContext (the simulator services the MAC whose hook is running) ---
  [[nodiscard]] double now() const override { return now_s_; }
  [[nodiscard]] StationId self() const override { return host_.self(); }
  using MacContext::transmit;
  void transmit(const Packet& pkt, StationId to, double power_w,
                double start_s, double rate_bps) override;
  void transmit_noise(double power_w, double start_s,
                      double duration_s) override;
  TimerHandle set_timer(double at_s, std::uint64_t cookie) override;
  bool cancel_timer(TimerHandle h) override;
  [[nodiscard]] bool transmitting() const override;
  [[nodiscard]] double received_power_w() const override;
  [[nodiscard]] double gain_to(StationId other) const override;
  void drop(const Packet& pkt) override;
  [[nodiscard]] Rng& rng() override { return host_.rng(); }

 private:
  // -- RadioMedium::Client: decode outcomes climbing out of the medium -----
  [[nodiscard]] bool station_up(StationId station) const override {
    return host_.station_active(station);
  }
  void on_decoded_unicast(const Packet& packet, StationId rx) override {
    network_.deliver(packet, rx, now_s_);
  }
  void on_decoded_broadcast(const Packet& packet, StationId from,
                            StationId rx, double signal_w) override;
  void on_transmit_complete(StationId from, const Packet& packet,
                            StationId to, bool any_delivered) override;

  SimulatorConfig config_;  // finalized at construction (thermal derived)
  Metrics metrics_;
  EventQueue queue_;
  double now_s_ = 0.0;
  std::uint64_t events_processed_ = 0;

  // Observers in installation order, shared by reference with the medium.
  std::vector<SimObserver*> observers_;

  // The three layers (construction order matters: the medium adopts the
  // engine, the host needs the station count, the network needs the host).
  RadioMedium medium_;
  StationHost host_;
  NetworkLayer network_;
};

}  // namespace drn::sim
