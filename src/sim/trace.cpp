#include "sim/trace.hpp"

namespace drn::sim {

void TraceRecorder::on_transmit_start(const TxEvent& tx) {
  transmissions_.push_back(tx);
  if (max_events_ > 0 && transmissions_.size() > max_events_) {
    transmissions_.pop_front();
    ++dropped_transmissions_;
  }
}

void TraceRecorder::on_reception_complete(const RxEvent& rx) {
  receptions_.push_back(rx);
  if (max_events_ > 0 && receptions_.size() > max_events_) {
    receptions_.pop_front();
    ++dropped_receptions_;
  }
}

void TraceRecorder::write_transmissions_csv(std::ostream& os) const {
  os << "tx_id,from,to,power_w,start_s,end_s,rate_bps,packet\n";
  for (const auto& tx : transmissions_) {
    os << tx.tx_id << ',' << tx.from << ','
       << (tx.to == kBroadcast ? -1 : static_cast<long long>(tx.to)) << ','
       << tx.power_w << ',' << tx.start_s << ',' << tx.end_s << ','
       << tx.rate_bps << ',' << tx.packet << '\n';
  }
}

void TraceRecorder::write_receptions_csv(std::ostream& os) const {
  os << "tx_id,rx,delivered,loss,min_sinr,required_snr,signal_w\n";
  for (const auto& rx : receptions_) {
    os << rx.tx_id << ',' << rx.rx << ',' << (rx.delivered ? 1 : 0) << ','
       << static_cast<int>(rx.loss) << ',' << rx.min_sinr << ','
       << rx.required_snr << ',' << rx.signal_w << '\n';
  }
}

void TraceRecorder::clear() {
  transmissions_.clear();
  receptions_.clear();
  dropped_transmissions_ = 0;
  dropped_receptions_ = 0;
}

}  // namespace drn::sim
