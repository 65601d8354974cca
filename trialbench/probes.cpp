#include "probes.hpp"

#include <utility>

namespace trialbench {

using drn::StationId;
using drn::radio::ReceptionHandle;
using drn::radio::Watts;
using drn::sim::MacContext;
using drn::sim::Packet;

double LayerCounters::probed_loop_s() const {
  double s = tx_started.self_s + tx_ended.self_s + open_rx.self_s + visitor_s;
  for (const Span* hook : {&on_start, &on_enqueue, &on_timer,
                           &on_transmit_end, &on_broadcast_received})
    s += hook->self_s;
  return s + route.self_s + rejoin.self_s;
}

// ---------------------------------------------------------------------------
// ProbeEngine

namespace {

/// What a wrapped visitor needs, behind one pointer so the wrapping lambda
/// fits std::function's small buffer and the probe allocates nothing.
template <class Visitor>
struct VisitorProbe {
  const Visitor& inner;
  std::uint64_t& visits;
  double inside_s = 0.0;
};

}  // namespace

ProbeEngine::ProbeEngine(std::unique_ptr<drn::radio::InterferenceEngine> inner,
                         Watts thermal, LayerCounters& counters)
    : inner_(std::move(inner)), c_(counters) {
  inner_->set_thermal_noise(thermal);
}

std::size_t ProbeEngine::station_count() const {
  return inner_->station_count();
}

const char* ProbeEngine::name() const { return inner_->name(); }

double ProbeEngine::gain(StationId rx, StationId tx) const {
  ++c_.gain;
  return inner_->gain(rx, tx);
}

void ProbeEngine::transmit_started(std::uint64_t tx_id, StationId from,
                                   Watts power, const SenderVisitor& at_sender,
                                   const AffectedVisitor& affected) {
  const auto t0 = Clock::now();
  // An empty visitor stays empty: engines skip work for absent visitors.
  VisitorProbe<SenderVisitor> sp{at_sender, c_.sender_visits};
  VisitorProbe<AffectedVisitor> ap{affected, c_.affected_visits};
  SenderVisitor s;
  if (at_sender) {
    s = [p = &sp](ReceptionHandle h) {
      ++p->visits;
      const auto v0 = Clock::now();
      p->inner(h);
      p->inside_s += seconds_since(v0);
    };
  }
  AffectedVisitor a;
  if (affected) {
    a = [p = &ap](ReceptionHandle h, Watts w) {
      ++p->visits;
      const auto v0 = Clock::now();
      p->inner(h, w);
      p->inside_s += seconds_since(v0);
    };
  }
  inner_->transmit_started(tx_id, from, power, s, a);
  const double inside = sp.inside_s + ap.inside_s;
  ++c_.tx_started.calls;
  c_.tx_started.self_s += seconds_since(t0) - inside;
  c_.visitor_s += inside;
}

void ProbeEngine::transmit_ended(std::uint64_t tx_id,
                                 const AffectedVisitor& affected) {
  const auto t0 = Clock::now();
  VisitorProbe<AffectedVisitor> ap{affected, c_.affected_visits};
  AffectedVisitor a;
  if (affected) {
    a = [p = &ap](ReceptionHandle h, Watts w) {
      ++p->visits;
      const auto v0 = Clock::now();
      p->inner(h, w);
      p->inside_s += seconds_since(v0);
    };
  }
  inner_->transmit_ended(tx_id, a);
  ++c_.tx_ended.calls;
  c_.tx_ended.self_s += seconds_since(t0) - ap.inside_s;
  c_.visitor_s += ap.inside_s;
}

ReceptionHandle ProbeEngine::open_reception(
    std::uint64_t tx_id, StationId rx,
    const ContributionVisitor& contribution) {
  const auto t0 = Clock::now();
  double inside = 0.0;
  ContributionVisitor cv;
  if (contribution) {
    cv = [&contribution, &inside](std::uint64_t id, Watts w) {
      const auto v0 = Clock::now();
      contribution(id, w);
      inside += seconds_since(v0);
    };
  }
  const ReceptionHandle h = inner_->open_reception(tx_id, rx, cv);
  ++c_.open_rx.calls;
  c_.open_rx.self_s += seconds_since(t0) - inside;
  c_.visitor_s += inside;
  return h;
}

void ProbeEngine::close_reception(ReceptionHandle h) {
  ++c_.close_rx;
  inner_->close_reception(h);
}

std::size_t ProbeEngine::open_receptions() const {
  return inner_->open_receptions();
}

Watts ProbeEngine::interference(ReceptionHandle h) const {
  ++c_.interference;
  return inner_->interference(h);
}

Watts ProbeEngine::recomputed_interference(ReceptionHandle h) const {
  return inner_->recomputed_interference(h);
}

Watts ProbeEngine::power_at(StationId s) const {
  ++c_.power_at;
  return inner_->power_at(s);
}

void ProbeEngine::station_moved(StationId s, drn::geo::Vec2 position) {
  inner_->station_moved(s, position);
}

void ProbeEngine::enable_mobility(
    drn::geo::Placement placement,
    std::shared_ptr<const drn::radio::PropagationModel> model,
    drn::radio::LinearGain self_gain) {
  inner_->enable_mobility(std::move(placement), std::move(model), self_gain);
}

// ---------------------------------------------------------------------------
// CountingObserver

void CountingObserver::on_transmit_start(const drn::sim::TxEvent& tx) {
  const bool broadcast = tx.to == drn::kBroadcast;
  if (tx.to == drn::kNoStation) {
    ++c_.tx_noise;
  } else if (broadcast) {
    ++c_.tx_broadcast;
  } else {
    ++c_.tx_unicast;
  }
  if (broadcast_.size() <= tx.tx_id) broadcast_.resize(tx.tx_id + 1, false);
  broadcast_[tx.tx_id] = broadcast;
}

void CountingObserver::on_reception_complete(const drn::sim::RxEvent& rx) {
  ++c_.rx_completed;
  if (rx.tx_id < broadcast_.size() && broadcast_[rx.tx_id])
    ++c_.rx_of_broadcast;
  switch (rx.loss) {
    case drn::sim::LossType::kNone: ++c_.rx_delivered; break;
    case drn::sim::LossType::kType1: ++c_.rx_type1; break;
    case drn::sim::LossType::kType2: ++c_.rx_type2; break;
    case drn::sim::LossType::kType3: ++c_.rx_type3; break;
    case drn::sim::LossType::kAborted: ++c_.rx_aborted; break;
  }
}

void CountingObserver::on_transmit_aborted(const drn::sim::TxEvent& tx,
                                           double time_s) {
  (void)tx;
  (void)time_s;
  ++c_.tx_aborted;
}

// ---------------------------------------------------------------------------
// ProbeMac

namespace {

/// Forwards every MacContext service, counting the ones that create work
/// for the event core.
class ProbeContext final : public MacContext {
 public:
  ProbeContext(MacContext& inner, LayerCounters& counters)
      : inner_(inner), c_(counters) {}

  [[nodiscard]] double now() const override { return inner_.now(); }
  [[nodiscard]] StationId self() const override { return inner_.self(); }
  using MacContext::transmit;
  void transmit(const Packet& pkt, StationId to, double power_w,
                double start_s, double rate_bps) override {
    ++c_.ctx_transmit;
    inner_.transmit(pkt, to, power_w, start_s, rate_bps);
  }
  void transmit_noise(double power_w, double start_s,
                      double duration_s) override {
    inner_.transmit_noise(power_w, start_s, duration_s);
  }
  drn::sim::TimerHandle set_timer(double at_s, std::uint64_t cookie) override {
    ++c_.ctx_set_timer;
    return inner_.set_timer(at_s, cookie);
  }
  bool cancel_timer(drn::sim::TimerHandle h) override {
    ++c_.ctx_cancel_timer;
    return inner_.cancel_timer(h);
  }
  [[nodiscard]] bool transmitting() const override {
    return inner_.transmitting();
  }
  [[nodiscard]] double received_power_w() const override {
    return inner_.received_power_w();
  }
  [[nodiscard]] double gain_to(StationId other) const override {
    return inner_.gain_to(other);
  }
  void drop(const Packet& pkt) override { inner_.drop(pkt); }
  [[nodiscard]] drn::Rng& rng() override { return inner_.rng(); }

 private:
  MacContext& inner_;
  LayerCounters& c_;
};

template <class Hook>
void timed_hook(Span& span, MacContext& ctx, LayerCounters& c, Hook&& hook) {
  ProbeContext probe(ctx, c);
  const auto t0 = Clock::now();
  hook(probe);
  span.self_s += seconds_since(t0);
  ++span.calls;
}

}  // namespace

void ProbeMac::on_start(MacContext& ctx) {
  timed_hook(c_.on_start, ctx, c_,
             [this](MacContext& p) { inner_->on_start(p); });
}

void ProbeMac::on_enqueue(MacContext& ctx, const Packet& pkt,
                          StationId next_hop) {
  timed_hook(c_.on_enqueue, ctx, c_, [&](MacContext& p) {
    inner_->on_enqueue(p, pkt, next_hop);
  });
}

void ProbeMac::on_timer(MacContext& ctx, std::uint64_t cookie) {
  timed_hook(c_.on_timer, ctx, c_,
             [&](MacContext& p) { inner_->on_timer(p, cookie); });
}

void ProbeMac::on_transmit_end(MacContext& ctx, const Packet& pkt,
                               StationId to, bool delivered) {
  timed_hook(c_.on_transmit_end, ctx, c_, [&](MacContext& p) {
    inner_->on_transmit_end(p, pkt, to, delivered);
  });
}

void ProbeMac::on_broadcast_received(MacContext& ctx, const Packet& pkt,
                                     StationId from, double signal_w) {
  timed_hook(c_.on_broadcast_received, ctx, c_, [&](MacContext& p) {
    inner_->on_broadcast_received(p, pkt, from, signal_w);
  });
}

std::size_t ProbeMac::queued_packets() const {
  return inner_->queued_packets();
}

void ProbeMac::on_clock_rate_changed(MacContext& ctx, double delta_ppm) {
  ProbeContext probe(ctx, c_);
  inner_->on_clock_rate_changed(probe, delta_ppm);
}

// ---------------------------------------------------------------------------
// Router and rejoin factory

drn::sim::Router wrap_router(drn::sim::Router inner, LayerCounters& counters) {
  return [inner = std::move(inner), &counters](StationId at, StationId dst) {
    const auto t0 = Clock::now();
    const StationId next = inner(at, dst);
    counters.route.self_s += seconds_since(t0);
    ++counters.route.calls;
    return next;
  };
}

drn::dynamics::MacFactory wrap_rejoin(drn::dynamics::MacFactory inner,
                                      LayerCounters& counters) {
  return [inner = std::move(inner), &counters](StationId s) {
    const auto t0 = Clock::now();
    auto mac = std::make_unique<ProbeMac>(inner(s), counters);
    counters.rejoin.self_s += seconds_since(t0);
    ++counters.rejoin.calls;
    return std::unique_ptr<drn::sim::MacProtocol>(std::move(mac));
  };
}

}  // namespace trialbench
