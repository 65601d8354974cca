#include "radio/interference_engine.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "geo/grid_index.hpp"

namespace drn::radio {

namespace {

/// Incremental recomputation period: after this many updates a reception's
/// running sum is rebuilt exactly from the live transmission set, so
/// compensated rounding residue can never accumulate across more than
/// kRecomputePeriod operations.
constexpr std::uint32_t kRecomputePeriod = 64;

/// Reception slot bookkeeping for the near/far engine: slots indexed by
/// handle, freed slots reused last-in first-out.
template <typename Slot>
class SlotTable {
 public:
  ReceptionHandle alloc() {
    if (!free_.empty()) {
      const ReceptionHandle h = free_.back();
      free_.pop_back();
      slots_[h] = Slot{};
      slots_[h].live = true;
      return h;
    }
    slots_.emplace_back();
    slots_.back().live = true;
    return static_cast<ReceptionHandle>(slots_.size() - 1);
  }

  void release(ReceptionHandle h) {
    slots_[h].live = false;
    free_.push_back(h);
  }

  Slot& at(ReceptionHandle h) {
    DRN_EXPECTS(h < slots_.size() && slots_[h].live);
    return slots_[h];
  }
  const Slot& at(ReceptionHandle h) const {
    DRN_EXPECTS(h < slots_.size() && slots_[h].live);
    return slots_[h];
  }

  [[nodiscard]] std::size_t live_count() const {
    return slots_.size() - free_.size();
  }

  /// Visits live slots in ascending handle order (deterministic).
  template <typename F>
  void for_each_live(F&& visit) {
    for (ReceptionHandle h = 0; h < slots_.size(); ++h)
      if (slots_[h].live) visit(h, slots_[h]);
  }

 private:
  std::vector<Slot> slots_;
  std::vector<ReceptionHandle> free_;
};

// ---------------------------------------------------------------------------
// Compensated engine: Neumaier sums + periodic exact recomputation.
//
// Everything a walk reads is laid out as parallel arrays. Active
// transmissions are id-sorted (id, from, power). Open receptions are packed
// into live slots only (handle, tx_id, rx, sum, ops), swap-removed on close
// with a handle -> slot map, so a walk never steps over a closed reception.
// Gains are read through PropagationMatrix::row() pointers.
//
// Slot order is free: a visit touches only its own slot and the client's
// record for its own handle. That also lets a walk run in two passes, the
// first updating every slot's sum and the second notifying the visitors, so
// the first pass's gain loads overlap instead of each waiting behind an
// opaque visitor call. Each slot's arithmetic order is fixed: the Neumaier
// adds in event order, and every kRecomputePeriod-th op an exact rebuild
// summed in ascending tx-id order.

class CompensatedEngine final : public InterferenceEngine {
 public:
  explicit CompensatedEngine(PropagationMatrix gains)
      : gains_(std::move(gains)) {}

  [[nodiscard]] std::size_t station_count() const override {
    return gains_.size();
  }
  [[nodiscard]] const char* name() const override { return "compensated"; }
  [[nodiscard]] double gain(StationId rx, StationId tx) const override {
    return gains_.gain(rx, tx);
  }

  void transmit_started(std::uint64_t tx_id, StationId from, Watts power,
                        const SenderVisitor& at_sender,
                        const AffectedVisitor& affected) override {
    const double power_w = power.value();
    insert_active(tx_id, from, power_w);
    // By symmetry row(from)[rx] == gain(rx, from): the walk over open
    // receptions reads one contiguous row instead of striding a column.
    const double* from_row = gains_.row(from);
    const std::size_t n = slot_rx_.size();
    walk_watts_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (slot_rx_[i] == from) continue;
      const double watts = from_row[slot_rx_[i]] * power_w;
      slot_sum_[i].add(watts);
      bump(i);
      walk_watts_[i] = watts;
    }
    if (!at_sender && !affected) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (slot_rx_[i] == from) {
        if (at_sender) at_sender(slot_handle_[i]);
      } else if (affected) {
        affected(slot_handle_[i], Watts{walk_watts_[i]});
      }
    }
  }

  void transmit_ended(std::uint64_t tx_id,
                      const AffectedVisitor& affected) override {
    const auto k = find_active(tx_id);
    const StationId from = active_from_[k];
    const double power_w = active_power_[k];
    erase_active(k);
    const double* from_row = gains_.row(from);
    const std::size_t n = slot_rx_.size();
    walk_watts_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (slot_tx_[i] == tx_id || slot_rx_[i] == from) continue;
      const double watts = from_row[slot_rx_[i]] * power_w;
      slot_sum_[i].add(-watts);
      bump(i);
      walk_watts_[i] = watts;
    }
    if (!affected) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (slot_tx_[i] == tx_id || slot_rx_[i] == from) continue;
      affected(slot_handle_[i], Watts{walk_watts_[i]});
    }
  }

  [[nodiscard]] ReceptionHandle open_reception(
      std::uint64_t tx_id, StationId rx,
      const ContributionVisitor& contribution) override {
    (void)find_active(tx_id);  // must be on the air
    const double* rx_row = gains_.row(rx);
    CompensatedSum sum;
    for (std::size_t k = 0; k < active_id_.size(); ++k) {
      const StationId from = active_from_[k];
      if (active_id_[k] == tx_id || from == rx) continue;
      const double watts = rx_row[from] * active_power_[k];
      sum.add(watts);
      if (contribution) contribution(active_id_[k], Watts{watts});
    }

    ReceptionHandle h = kInvalidReception;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
    } else {
      h = static_cast<ReceptionHandle>(slot_of_.size());
      slot_of_.push_back(kNoSlot);
    }
    slot_of_[h] = static_cast<std::uint32_t>(slot_rx_.size());
    slot_handle_.push_back(h);
    slot_tx_.push_back(tx_id);
    slot_rx_.push_back(rx);
    slot_sum_.push_back(sum);
    slot_ops_.push_back(0);
    return h;
  }

  void close_reception(ReceptionHandle h) override {
    const std::uint32_t i = slot(h);
    const std::size_t last = slot_rx_.size() - 1;
    if (i != last) {
      slot_handle_[i] = slot_handle_[last];
      slot_tx_[i] = slot_tx_[last];
      slot_rx_[i] = slot_rx_[last];
      slot_sum_[i] = slot_sum_[last];
      slot_ops_[i] = slot_ops_[last];
      slot_of_[slot_handle_[i]] = i;
    }
    slot_handle_.pop_back();
    slot_tx_.pop_back();
    slot_rx_.pop_back();
    slot_sum_.pop_back();
    slot_ops_.pop_back();
    slot_of_[h] = kNoSlot;
    free_.push_back(h);
  }

  [[nodiscard]] std::size_t open_receptions() const override {
    return slot_rx_.size();
  }

  [[nodiscard]] Watts interference(ReceptionHandle h) const override {
    // max(0, ·): a fully-compensated sum of removals can still leave a
    // residue of a few ulps below zero; physical interference cannot.
    return Watts{thermal_w_ + std::max(0.0, slot_sum_[slot(h)].value())};
  }

  [[nodiscard]] Watts recomputed_interference(
      ReceptionHandle h) const override {
    const std::uint32_t i = slot(h);
    return Watts{thermal_w_ +
                 std::max(0.0, exact_sum(slot_tx_[i], slot_rx_[i]).value())};
  }

  [[nodiscard]] Watts power_at(StationId st) const override {
    const double* st_row = gains_.row(st);
    CompensatedSum sum;
    for (std::size_t k = 0; k < active_id_.size(); ++k)
      sum.add(st_row[active_from_[k]] * active_power_[k]);
    return Watts{thermal_w_ + std::max(0.0, sum.value())};
  }

  void enable_mobility(geo::Placement placement,
                       std::shared_ptr<const PropagationModel> model,
                       LinearGain self_gain) override {
    DRN_EXPECTS(model != nullptr);
    DRN_EXPECTS(placement.size() == gains_.size());
    placement_ = std::move(placement);
    model_ = std::move(model);
    self_gain_ = self_gain.value();
  }

  void station_moved(StationId s, geo::Vec2 position) override {
    DRN_EXPECTS(s < gains_.size());
    DRN_EXPECTS(model_ != nullptr);  // enable_mobility() first
    // RF-idle precondition: no compensated sum may hold a contribution that
    // was added through the station's old gains.
    for (const StationId from : active_from_) DRN_EXPECTS(from != s);
    for (const StationId rx : slot_rx_) DRN_EXPECTS(rx != s);
    placement_[s] = position;
    for (StationId other = 0; other < gains_.size(); ++other) {
      if (other == s) continue;
      gains_.set_gain(s, other,
                      model_->power_gain(placement_[s], placement_[other]));
    }
    gains_.set_gain(s, s, LinearGain{self_gain_});
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Position of tx_id in the active arrays; it must be on the air.
  [[nodiscard]] std::size_t find_active(std::uint64_t tx_id) const {
    const auto it =
        std::lower_bound(active_id_.begin(), active_id_.end(), tx_id);
    DRN_EXPECTS(it != active_id_.end() && *it == tx_id);
    return static_cast<std::size_t>(it - active_id_.begin());
  }

  /// The simulator assigns ids monotonically, so this is almost always an
  /// append.
  void insert_active(std::uint64_t tx_id, StationId from, double power_w) {
    const auto it =
        std::lower_bound(active_id_.begin(), active_id_.end(), tx_id);
    DRN_EXPECTS(it == active_id_.end() || *it != tx_id);
    const auto k = it - active_id_.begin();
    active_id_.insert(it, tx_id);
    active_from_.insert(active_from_.begin() + k, from);
    active_power_.insert(active_power_.begin() + k, power_w);
  }

  void erase_active(std::size_t k) {
    const auto d = static_cast<std::ptrdiff_t>(k);
    active_id_.erase(active_id_.begin() + d);
    active_from_.erase(active_from_.begin() + d);
    active_power_.erase(active_power_.begin() + d);
  }

  [[nodiscard]] std::uint32_t slot(ReceptionHandle h) const {
    DRN_EXPECTS(h < slot_of_.size() && slot_of_[h] != kNoSlot);
    return slot_of_[h];
  }

  /// The interference of a reception of tx_id at rx summed afresh over the
  /// active set, in ascending tx-id order.
  [[nodiscard]] CompensatedSum exact_sum(std::uint64_t tx_id,
                                         StationId rx) const {
    const double* rx_row = gains_.row(rx);
    CompensatedSum sum;
    for (std::size_t k = 0; k < active_id_.size(); ++k) {
      const StationId from = active_from_[k];
      if (active_id_[k] == tx_id || from == rx) continue;
      sum.add(rx_row[from] * active_power_[k]);
    }
    return sum;
  }

  void bump(std::size_t i) {
    if (++slot_ops_[i] >= kRecomputePeriod) {
      slot_sum_[i] = exact_sum(slot_tx_[i], slot_rx_[i]);
      slot_ops_[i] = 0;
    }
  }

  PropagationMatrix gains_;
  // Active transmissions, ascending id.
  std::vector<std::uint64_t> active_id_;
  std::vector<StationId> active_from_;
  std::vector<double> active_power_;
  // Open receptions, one live slot each, in no particular order.
  std::vector<ReceptionHandle> slot_handle_;
  std::vector<std::uint64_t> slot_tx_;
  std::vector<StationId> slot_rx_;
  std::vector<CompensatedSum> slot_sum_;  // excludes thermal
  std::vector<std::uint32_t> slot_ops_;
  std::vector<std::uint32_t> slot_of_;  // handle -> slot, kNoSlot if closed
  std::vector<ReceptionHandle> free_;   // closed handles, reused LIFO
  std::vector<double> walk_watts_;      // per-slot delta of the current walk
  geo::Placement placement_;                        // mobility only
  std::shared_ptr<const PropagationModel> model_;   // mobility only
  double self_gain_ = 1.0;
};

// ---------------------------------------------------------------------------
// Near/far engine: exact near field over a spatial grid, aggregated far din.

class NearFarEngine final : public InterferenceEngine {
 public:
  NearFarEngine(const geo::Placement& placement,
                std::shared_ptr<const PropagationModel> model,
                NearFarConfig config)
      : placement_(placement),
        model_(std::move(model)),
        config_(config),
        grid_(placement, config.cell.value() > 0.0
                             ? config.cell.value()
                             : config.cutoff.value() / 4.0) {
    DRN_EXPECTS(model_ != nullptr);
    DRN_EXPECTS(config_.cutoff.value() > 0.0);
    // Near = every cell whose Chebyshev distance is within the cutoff in
    // cell units; +1 so a pair straddling the cutoff is classified near
    // (erring exact) never far.
    range_ = static_cast<int>(config_.cutoff.value() / grid_.cell_m()) + 1;
  }

  [[nodiscard]] std::size_t station_count() const override {
    return placement_.size();
  }
  [[nodiscard]] const char* name() const override { return "nearfar"; }
  [[nodiscard]] double gain(StationId rx, StationId tx) const override {
    return pair_gain(rx, tx);
  }

  void transmit_started(std::uint64_t tx_id, StationId from, Watts power,
                        const SenderVisitor& at_sender,
                        const AffectedVisitor& affected) override {
    const double power_w = power.value();
    const std::int32_t cell = grid_.cell_of(from);
    active_.emplace(tx_id, Tx{from, power_w, cell});
    tx_ids_by_cell_[cell].push_back(tx_id);
    auto& load = tx_cells_[cell];
    load.power_w.add(power_w);
    ++load.count;

    // Far field: fold the new signal into the din of every occupied
    // receiver cell beyond the cutoff, then notify its receptions.
    for (auto& [rx_cell, far] : far_) {
      if (grid_.chebyshev(cell, rx_cell) <= range_) continue;
      const double watts = power_w * cell_gain(cell, rx_cell);
      far.din_w.add(watts);
      ++far.contributors;
      for (const ReceptionHandle h : far.handles) {
        const Slot& s = slots_.at(h);
        if (s.rx == from) continue;  // cannot happen (own cell is near)
        if (affected) affected(h, Watts{watts});
      }
    }

    // Near field: exact per-pair update of receptions in cells within range.
    for_each_occupied(far_, cell, [&](std::int32_t, FarField& far) {
      for (const ReceptionHandle h : far.handles) {
        Slot& s = slots_.at(h);
        if (s.rx == from) {
          if (at_sender) at_sender(h);
          continue;
        }
        if (s.tx_id == tx_id) continue;
        const double watts = pair_gain(s.rx, from) * power_w;
        s.near_w.add(watts);
        bump(s);
        if (affected) affected(h, Watts{watts});
      }
    });
  }

  void transmit_ended(std::uint64_t tx_id,
                      const AffectedVisitor& affected) override {
    const auto node = active_.extract(tx_id);
    DRN_EXPECTS(!node.empty());
    const Tx tx = node.mapped();
    auto& ids = tx_ids_by_cell_[tx.cell];
    const auto idit = std::find(ids.begin(), ids.end(), tx_id);
    DRN_EXPECTS(idit != ids.end());
    ids.erase(idit);
    if (ids.empty()) tx_ids_by_cell_.erase(tx.cell);
    const auto lit = tx_cells_.find(tx.cell);
    DRN_EXPECTS(lit != tx_cells_.end());
    if (--lit->second.count == 0) {
      tx_cells_.erase(lit);  // exact reset: an idle cell carries no residue
    } else {
      lit->second.power_w.add(-tx.power_w);
    }

    for (auto& [rx_cell, far] : far_) {
      if (grid_.chebyshev(tx.cell, rx_cell) <= range_) continue;
      const double watts = tx.power_w * cell_gain(tx.cell, rx_cell);
      if (--far.contributors == 0) {
        far.din_w.reset();  // exact reset at quiescence
      } else {
        far.din_w.add(-watts);
      }
      for (const ReceptionHandle h : far.handles) {
        const Slot& s = slots_.at(h);
        if (s.tx_id == tx_id || s.rx == tx.from) continue;
        if (affected) affected(h, Watts{watts});
      }
    }

    for_each_occupied(far_, tx.cell, [&](std::int32_t, FarField& far) {
      for (const ReceptionHandle h : far.handles) {
        Slot& s = slots_.at(h);
        if (s.tx_id == tx_id || s.rx == tx.from) continue;
        const double watts = pair_gain(s.rx, tx.from) * tx.power_w;
        s.near_w.add(-watts);
        bump(s);
        if (affected) affected(h, Watts{watts});
      }
    });
  }

  [[nodiscard]] ReceptionHandle open_reception(
      std::uint64_t tx_id, StationId rx,
      const ContributionVisitor& contribution) override {
    const auto txit = active_.find(tx_id);
    DRN_EXPECTS(txit != active_.end());
    const ReceptionHandle h = slots_.alloc();
    Slot& s = slots_.at(h);
    s.tx_id = tx_id;
    s.rx = rx;
    s.rx_cell = grid_.cell_of(rx);
    s.tx_from = txit->second.from;
    s.tx_power_w = txit->second.power_w;
    s.tx_cell = txit->second.cell;

    // Near: exact sum over active transmissions in cells within range.
    for_each_occupied(tx_ids_by_cell_, s.rx_cell,
                      [&](std::int32_t, const std::vector<std::uint64_t>& ids) {
      for (const std::uint64_t id : ids) {
        if (id == tx_id) continue;
        const Tx& other = active_.at(id);
        if (other.from == rx) continue;
        const double watts = pair_gain(rx, other.from) * other.power_w;
        s.near_w.add(watts);
        if (contribution) contribution(id, Watts{watts});
      }
    });

    // Far: share (or build) the din aggregate for this receiver cell.
    auto& far = far_[s.rx_cell];
    if (far.handles.empty()) {
      far.din_w.reset();
      far.contributors = 0;
      for (const auto& [id, other] : active_) {
        if (grid_.chebyshev(other.cell, s.rx_cell) <= range_) continue;
        far.din_w.add(other.power_w * cell_gain(other.cell, s.rx_cell));
        ++far.contributors;
      }
    }
    far.handles.push_back(h);
    if (contribution) {
      // Per-interferer far contributions (multiuser detection wants every
      // interferer): approximate by the same cell-centre gain the aggregate
      // uses, in deterministic id order.
      for (const auto& [id, other] : active_) {
        if (id == tx_id || other.from == rx) continue;
        if (grid_.chebyshev(other.cell, s.rx_cell) <= range_) continue;
        contribution(id,
                     Watts{other.power_w * cell_gain(other.cell, s.rx_cell)});
      }
    }
    return h;
  }

  void close_reception(ReceptionHandle h) override {
    const Slot& s = slots_.at(h);
    const auto it = far_.find(s.rx_cell);
    DRN_EXPECTS(it != far_.end());
    auto& handles = it->second.handles;
    const auto hit = std::find(handles.begin(), handles.end(), h);
    DRN_EXPECTS(hit != handles.end());
    handles.erase(hit);
    if (handles.empty()) far_.erase(it);
    slots_.release(h);
  }

  [[nodiscard]] std::size_t open_receptions() const override {
    return slots_.live_count();
  }

  [[nodiscard]] Watts interference(ReceptionHandle h) const override {
    const Slot& s = slots_.at(h);
    const auto it = far_.find(s.rx_cell);
    DRN_EXPECTS(it != far_.end());
    double far = std::max(0.0, it->second.din_w.value());
    if (grid_.chebyshev(s.tx_cell, s.rx_cell) > range_) {
      // The reception's own signal sits in the far aggregate; take it out.
      far = std::max(
          0.0, far - s.tx_power_w * cell_gain(s.tx_cell, s.rx_cell));
    }
    return Watts{thermal_w_ + std::max(0.0, s.near_w.value()) + far};
  }

  [[nodiscard]] Watts recomputed_interference(
      ReceptionHandle h) const override {
    const Slot& s = slots_.at(h);
    CompensatedSum near;
    CompensatedSum far;
    for (const auto& [id, other] : active_) {
      if (id == s.tx_id || other.from == s.rx) continue;
      if (grid_.chebyshev(other.cell, s.rx_cell) <= range_) {
        near.add(pair_gain(s.rx, other.from) * other.power_w);
      } else {
        far.add(other.power_w * cell_gain(other.cell, s.rx_cell));
      }
    }
    return Watts{thermal_w_ + std::max(0.0, near.value()) +
                 std::max(0.0, far.value())};
  }

  [[nodiscard]] Watts power_at(StationId st) const override {
    const std::int32_t cell = grid_.cell_of(st);
    CompensatedSum sum;
    for_each_occupied(tx_ids_by_cell_, cell,
                      [&](std::int32_t, const std::vector<std::uint64_t>& ids) {
      for (const std::uint64_t id : ids) {
        const Tx& tx = active_.at(id);
        sum.add(pair_gain(st, tx.from) * tx.power_w);
      }
    });
    for (const auto& [c, load] : tx_cells_) {
      if (grid_.chebyshev(c, cell) <= range_) continue;
      sum.add(std::max(0.0, load.power_w.value()) * cell_gain(c, cell));
    }
    return Watts{thermal_w_ + std::max(0.0, sum.value())};
  }

  void enable_mobility(geo::Placement placement,
                       std::shared_ptr<const PropagationModel> model,
                       LinearGain self_gain) override {
    // Nothing to set up: this engine already owns its placement and model
    // and evaluates every gain lazily from them.
    DRN_EXPECTS(placement.size() == placement_.size());
    (void)model;
    (void)self_gain;
  }

  void station_moved(StationId s, geo::Vec2 position) override {
    DRN_EXPECTS(s < placement_.size());
    // RF-idle precondition: the station contributes to no active near sum,
    // no cell load, and no far-field din, so only its future pairings see
    // the new position.
    for (const auto& [id, tx] : active_) DRN_EXPECTS(tx.from != s);
    slots_.for_each_live(
        [&](ReceptionHandle, Slot& slot) { DRN_EXPECTS(slot.rx != s); });
    placement_[s] = position;
    grid_.move_station(s, position);
  }

 private:
  struct Tx {
    StationId from = kNoStation;
    double power_w = 0.0;
    std::int32_t cell = 0;
  };

  struct Slot {
    std::uint64_t tx_id = 0;
    StationId rx = kNoStation;
    std::int32_t rx_cell = 0;
    StationId tx_from = kNoStation;
    double tx_power_w = 0.0;
    std::int32_t tx_cell = 0;
    CompensatedSum near_w;  // exact near field, thermal excluded
    std::uint32_t ops = 0;
    bool live = false;
  };

  /// Per occupied receiver cell: the aggregated far-field din (Section 4's
  /// "din of distant transmitters") plus the open receptions sharing it.
  struct FarField {
    CompensatedSum din_w;
    int contributors = 0;
    std::vector<ReceptionHandle> handles;  // event (insertion) order
  };

  struct CellLoad {
    CompensatedSum power_w;
    int count = 0;
  };

  /// Visits `map`'s entries whose cell key lies within Chebyshev range_ of
  /// `cell`, row-major (the same order for_each_cell_in_range would visit
  /// them, so floating-point accumulation order is unchanged). One
  /// lower_bound per row instead of one find per cell: the near window is
  /// mostly empty, and this walks only occupied entries.
  template <typename Map, typename F>
  void for_each_occupied(Map& map, std::int32_t cell, F&& visit) const {
    const int cols = grid_.cols();
    const int cx = cell % cols;
    const int cy = cell / cols;
    const int y_lo = cy - range_ < 0 ? 0 : cy - range_;
    const int y_hi = cy + range_ >= grid_.rows() ? grid_.rows() - 1 : cy + range_;
    const int x_lo = cx - range_ < 0 ? 0 : cx - range_;
    const int x_hi = cx + range_ >= cols ? cols - 1 : cx + range_;
    for (int y = y_lo; y <= y_hi; ++y) {
      const std::int32_t row_hi = y * cols + x_hi;
      for (auto it = map.lower_bound(y * cols + x_lo);
           it != map.end() && it->first <= row_hi; ++it)
        visit(it->first, it->second);
    }
  }

  [[nodiscard]] double pair_gain(StationId rx, StationId tx) const {
    if (rx == tx) return config_.self_gain.value();
    return model_->power_gain(placement_[rx], placement_[tx]).value();
  }

  [[nodiscard]] double cell_gain(std::int32_t a, std::int32_t b) const {
    return model_->power_gain(grid_.cell_center(a), grid_.cell_center(b))
        .value();
  }

  void bump(Slot& s) {
    if (++s.ops < kRecomputePeriod) return;
    CompensatedSum near;
    for (const auto& [id, other] : active_) {
      if (id == s.tx_id || other.from == s.rx) continue;
      if (grid_.chebyshev(other.cell, s.rx_cell) > range_) continue;
      near.add(pair_gain(s.rx, other.from) * other.power_w);
    }
    s.near_w = near;
    s.ops = 0;
  }

  geo::Placement placement_;
  std::shared_ptr<const PropagationModel> model_;
  NearFarConfig config_;
  geo::GridIndex grid_;
  int range_ = 1;
  std::map<std::uint64_t, Tx> active_;
  std::map<std::int32_t, std::vector<std::uint64_t>> tx_ids_by_cell_;
  std::map<std::int32_t, CellLoad> tx_cells_;
  std::map<std::int32_t, FarField> far_;
  SlotTable<Slot> slots_;
};

}  // namespace

void InterferenceEngine::station_moved(StationId s, geo::Vec2 position) {
  (void)s;
  (void)position;
  DRN_EXPECTS(false);  // this engine does not support mobility
}

void InterferenceEngine::enable_mobility(
    geo::Placement placement, std::shared_ptr<const PropagationModel> model,
    LinearGain self_gain) {
  (void)placement;
  (void)model;
  (void)self_gain;
  DRN_EXPECTS(false);  // this engine does not support mobility
}

std::optional<InterferenceEngineKind> parse_engine(std::string_view text) {
  if (text == "compensated") return InterferenceEngineKind::kCompensated;
  if (text == "nearfar") return InterferenceEngineKind::kNearFar;
  return std::nullopt;
}

const char* engine_name(InterferenceEngineKind kind) {
  switch (kind) {
    case InterferenceEngineKind::kCompensated: return "compensated";
    case InterferenceEngineKind::kNearFar: return "nearfar";
  }
  return "?";
}

PropagationMatrix make_dense_gains(const geo::Placement& placement,
                                   const PropagationModel& model,
                                   LinearGain self_gain) {
  DRN_EXPECTS(placement.size() <= kDenseMatrixGuardM);
  // drn-lint: allow(dense-matrix) — the sanctioned guarded route.
  return PropagationMatrix::from_placement(placement, model, self_gain);
}

std::unique_ptr<InterferenceEngine> make_compensated_engine(
    PropagationMatrix gains) {
  return std::make_unique<CompensatedEngine>(std::move(gains));
}

std::unique_ptr<InterferenceEngine> make_nearfar_engine(
    const geo::Placement& placement,
    std::shared_ptr<const PropagationModel> model, NearFarConfig config) {
  return std::make_unique<NearFarEngine>(placement, std::move(model), config);
}

}  // namespace drn::radio
